package ecc

// Word pairs a data word with its check bits, so the tests can strike
// either half of a stored codeword and decode the result.
type Word struct {
	Data  uint64
	Check uint8
}

// NewWord encodes data into a protected Word.
func NewWord(data uint64) Word { return Word{Data: data, Check: Encode(data)} }

// Read decodes the word, returning corrected data and the decode result.
func (w Word) Read() (uint64, Result) { return Decode(w.Data, w.Check) }

// FlipDataBit returns a copy of w with data bit i (0..63) inverted,
// simulating an SEU striking the stored data.
func (w Word) FlipDataBit(i int) Word {
	w.Data ^= 1 << uint(i&63)
	return w
}

// FlipCheckBit returns a copy of w with check bit i (0..7) inverted,
// simulating an SEU striking the stored ECC metadata.
func (w Word) FlipCheckBit(i int) Word {
	w.Check ^= 1 << uint(i&7)
	return w
}
