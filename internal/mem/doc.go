// Package mem models the memory devices of a commodity spacecraft
// computer: DRAM (with or without SECDED ECC) and flash storage (always
// SECDED-protected, per the paper's observation about commodity flash).
//
// These devices define the system's reliability frontier: data at rest on
// an ECC-protected device survives single-event upsets (the codec corrects
// them), while data on an unprotected device — or in flight through the
// cache and pipeline — does not. Package emr draws its replication and
// scheduling decisions from exactly this boundary.
//
// Key types: DRAM implements the Memory interface (bounded Read/Write
// plus FlipBit for fault injection), and NewStorage builds the flash
// device as an ECC DRAM named "storage"; Bus routes addresses to
// the devices behind one flat physical address space; Region names an
// address range; Stats counts reads, writes, injected flips, ECC
// corrections, and uncorrectable words; UncorrectableError and
// BoundsError are the two failure modes a read can surface.
//
// Invariants: ECC devices correct any single flipped bit per 64-bit
// word transparently on read (counting it in Stats.Corrected) and
// return UncorrectableError for double flips, leaving the word intact;
// non-ECC DRAM returns whatever was stored, flips included — silent
// corruption by design; FlipBit mutates stored bits without touching
// the ECC check bits, exactly like a radiation strike; addresses are
// validated against device bounds before any access; bytes never
// written or struck read as zero and cost no host memory.
package mem
