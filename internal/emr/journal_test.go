package emr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"radshield/internal/fault"
)

func TestJournalRoundTrip(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	j, err := rt.NewJournal(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(7, []byte("world!")); err != nil {
		t.Fatal(err)
	}
	got, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[3]) != "hello" || string(got[7]) != "world!" {
		t.Fatalf("Load = %v", got)
	}
}

func TestJournalTornWriteDiscardsTail(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	j, err := rt.NewJournal(4096)
	if err != nil {
		t.Fatal(err)
	}
	j.append(0, []byte("first"))
	j.append(1, []byte("second"))
	// Corrupt the second record's body (simulating a torn write or a
	// flash upset that escaped correction).
	// Record 0 occupies 12+5 bytes; record 1's body starts at 17+12.
	rt.storage.FlipBit(j.region.Addr-rt.storageBase+29, 2)
	rt.storage.FlipBit(j.region.Addr-rt.storageBase+29, 3)
	// (two flips in one word defeat SECDED; Load must stop at the CRC)
	got, err := j.Load()
	if err == nil && len(got) > 1 {
		t.Fatalf("corrupt tail survived: %v", got)
	}
	if _, ok := got[0]; !ok && err == nil {
		t.Fatal("intact first record lost")
	}
}

func TestJournalCapacityValidation(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	if _, err := rt.NewJournal(4); err == nil {
		t.Fatal("tiny journal accepted")
	}
}

func TestJournalFullIsBestEffort(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	j, err := rt.NewJournal(20) // fits one 5-byte record, not two
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(0, []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(1, []byte("12345")); err == nil {
		t.Fatal("overfull append succeeded")
	}
}

func TestRunJournaledResumesAfterReboot(t *testing.T) {
	// First run: a "power cut" (job descriptor corruption) kills every
	// executor visit from dataset 5 onward. Second run on the same
	// hardware resumes from the journal and computes only the remainder.
	want := golden(t, 10, 256, false)

	rt := newRuntime(t, fault.SchemeEMR)
	j, err := rt.NewJournal(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := chunkedSpec(t, rt, 10, 256, false)
	cut := errors.New("power cut")
	spec.Hook = func(hp *HookPoint) {
		if hp.Phase == PhaseBeforeRead && hp.Dataset >= 5 {
			hp.Fail = cut
		}
	}
	first, err := rt.RunJournaled(spec, j)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, out := range first.Outputs {
		if out != nil {
			completed++
		}
	}
	if completed != 5 {
		t.Fatalf("first run completed %d datasets, want 5", completed)
	}

	// "Reboot": same storage, fresh journal view, no more faults.
	spec.Hook = nil
	second, err := rt.RunJournaled(spec, j)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(second.Outputs[i], want[i]) {
			t.Fatalf("dataset %d wrong after resume", i)
		}
	}
	// Only the 5 missing datasets were executed in the second run.
	if second.Report.Datasets != 5 {
		t.Fatalf("resume executed %d datasets, want 5", second.Report.Datasets)
	}
	// A third run finds everything checkpointed and executes nothing.
	third, err := rt.RunJournaled(spec, j)
	if err != nil {
		t.Fatal(err)
	}
	if third.Report.Datasets != 0 {
		t.Fatalf("third run executed %d datasets, want 0", third.Report.Datasets)
	}
	for i := range want {
		if !bytes.Equal(third.Outputs[i], want[i]) {
			t.Fatalf("dataset %d wrong from pure checkpoint", i)
		}
	}
}

func TestRunJournaledNilJournalFallsBack(t *testing.T) {
	rt := newRuntime(t, fault.SchemeEMR)
	spec := chunkedSpec(t, rt, 4, 128, false)
	res, err := rt.RunJournaled(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Datasets != 4 {
		t.Fatalf("Datasets = %d", res.Report.Datasets)
	}
}

func TestRunJournaledHookIndexMapping(t *testing.T) {
	// Hooks during a resumed run must see ORIGINAL dataset indices.
	rt := newRuntime(t, fault.SchemeEMR)
	j, err := rt.NewJournal(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := chunkedSpec(t, rt, 6, 128, false)
	// Pre-checkpoint datasets 0..2 via a first faulty run.
	cut := errors.New("cut")
	spec.Hook = func(hp *HookPoint) {
		if hp.Dataset >= 3 {
			hp.Fail = cut
		}
	}
	if _, err := rt.RunJournaled(spec, j); err != nil {
		t.Fatal(err)
	}
	var seen []int
	spec.Hook = func(hp *HookPoint) {
		if hp.Phase == PhaseBeforeRead && hp.Executor == 0 {
			seen = append(seen, hp.Dataset)
		}
	}
	if _, err := rt.RunJournaled(spec, j); err != nil {
		t.Fatal(err)
	}
	for _, d := range seen {
		if d < 3 || d > 5 {
			t.Fatalf("hook saw dataset %d, want original indices 3..5", d)
		}
	}
	if len(seen) == 0 {
		t.Fatal("hook never fired on resume")
	}
}

// journalRecords parses a journal region the way its format defines
// it: records back to back, ending at a zero length, a record that
// overruns the region, or the first CRC mismatch.
func journalRecords(region []byte) map[int][]byte {
	out := make(map[int][]byte)
	for off := 0; off+journalHeader <= len(region); {
		n := int(binary.LittleEndian.Uint32(region[off+4:]))
		if n == 0 || off+journalHeader+n > len(region) {
			break
		}
		body := region[off+journalHeader : off+journalHeader+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(region[off+8:]) {
			break
		}
		out[int(binary.LittleEndian.Uint32(region[off:]))] = body
		off += journalHeader + n
	}
	return out
}

// journalRecord encodes one record in the journal's flash layout.
func journalRecord(idx uint32, body string) []byte {
	rec := make([]byte, journalHeader, journalHeader+len(body))
	binary.LittleEndian.PutUint32(rec[0:], idx)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.ChecksumIEEE([]byte(body)))
	return append(rec, body...)
}

// FuzzJournalLoad writes arbitrary bytes over a journal's flash region —
// what a power cut mid-append or an escaped upset leaves for the next
// boot to replay. Load must never panic and must return exactly the
// CRC-valid records ahead of the first bad one; RunJournaled must then
// either refuse the journal with an error or serve those records and
// compute the rest correctly, never panic.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(journalRecord(0, "first"))
	f.Add(append(journalRecord(1, "one"), journalRecord(3, "three")...))
	f.Add(journalRecord(9, "a dataset the spec does not have"))
	torn := journalRecord(2, "torn")
	torn[len(torn)-1] ^= 1
	f.Add(append(journalRecord(0, "kept"), torn...))
	f.Add([]byte("\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		const capacity, datasets = 512, 4
		rt := newRuntime(t, fault.SchemeEMR)
		spec := chunkedSpec(t, rt, datasets, 64, false)
		j, err := rt.NewJournal(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > capacity {
			raw = raw[:capacity]
		}
		if err := rt.bus.Write(j.region.Addr, raw); err != nil {
			t.Fatal(err)
		}
		got, err := j.Load()
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		want := journalRecords(append(raw, make([]byte, capacity-len(raw))...))
		if len(got) != len(want) {
			t.Fatalf("Load returned %d records, want the %d CRC-valid ones", len(got), len(want))
		}
		foreign := false
		for i, body := range want {
			if !bytes.Equal(got[i], body) {
				t.Fatalf("record %d = %q, want %q", i, got[i], body)
			}
			foreign = foreign || i >= datasets
		}

		res, err := rt.RunJournaled(spec, j)
		if foreign {
			if err == nil {
				t.Fatal("RunJournaled served a journal holding a dataset the spec does not have")
			}
			return
		}
		if err != nil {
			t.Fatalf("RunJournaled: %v", err)
		}
		for i, out := range golden(t, datasets, 64, false) {
			if body, ok := want[i]; ok {
				out = body
			}
			if !bytes.Equal(res.Outputs[i], out) {
				t.Fatalf("dataset %d = %x, want %x", i, res.Outputs[i], out)
			}
		}
	})
}
