package workloads

import (
	"crypto/aes"
	"fmt"
	"slices"

	"radshield/internal/emr"
)

// aesChunk is the per-dataset plaintext size. 4 KiB chunks mirror the
// block-parallel structure of bulk spacecraft telemetry encryption.
const aesChunk = 4096

// aesKeySize is AES-256.
const aesKeySize = 32

// Encryption builds the AES-256-ECB workload: every dataset is one
// plaintext chunk plus the shared key. ECB mode (the paper's choice)
// makes blocks independent, so chunks never conflict — only the key is
// shared, and replication removes that conflict entirely.
func Encryption() Builder {
	return Builder{
		Name: "encryption",
		Build: func(rt *emr.Runtime, size int, seed int64) (emr.Spec, error) {
			n := size / aesChunk
			if n < 1 {
				n = 1
			}
			plain, err := rt.LoadInput("plaintext", synthetic(n*aesChunk, seed))
			if err != nil {
				return emr.Spec{}, err
			}
			key, err := rt.LoadInput("key", synthetic(aesKeySize, seed+1))
			if err != nil {
				return emr.Spec{}, err
			}
			refs := make([]emr.InputRef, 0, 2*n)
			datasets := make([]emr.Dataset, n)
			for i := range datasets {
				chunk, err := plain.Slice(uint64(i*aesChunk), aesChunk)
				if err != nil {
					return emr.Spec{}, err
				}
				refs = append(refs, chunk, key)
				datasets[i] = emr.Dataset{Inputs: slices.Clip(refs[2*i:])}
			}
			return emr.Spec{
				Name:          "encryption",
				Datasets:      datasets,
				Job:           aesJob,
				CyclesPerByte: 2.5, // hardware AES pipeline (NEON/AES-NI class, per the paper §3.2)
			}, nil
		},
	}
}

// aesJob encrypts inputs[0] under key inputs[1] in ECB mode, appending
// the ciphertext to dst.
func aesJob(dst []byte, inputs [][]byte) ([]byte, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("aes: want [chunk, key], got %d inputs", len(inputs))
	}
	chunk, key := inputs[0], inputs[1]
	if len(chunk)%aes.BlockSize != 0 {
		return nil, fmt.Errorf("aes: chunk size %d not a block multiple", len(chunk))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aes: %w", err)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(chunk))[:n+len(chunk)]
	out := dst[n:]
	for off := 0; off < len(chunk); off += aes.BlockSize {
		block.Encrypt(out[off:off+aes.BlockSize], chunk[off:off+aes.BlockSize])
	}
	return dst, nil
}

// AESDecryptECB is the inverse transform, used by tests to verify that
// voted ciphertext round-trips.
func AESDecryptECB(ciphertext, key []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	if len(ciphertext)%aes.BlockSize != 0 {
		return nil, fmt.Errorf("aes: ciphertext size %d not a block multiple", len(ciphertext))
	}
	out := make([]byte, len(ciphertext))
	for off := 0; off < len(ciphertext); off += aes.BlockSize {
		block.Decrypt(out[off:off+aes.BlockSize], ciphertext[off:off+aes.BlockSize])
	}
	return out, nil
}
