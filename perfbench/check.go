package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"vcache/internal/core"
	"vcache/internal/trace"
)

// roundTrip checks that canonical results bytes decode and re-encode to
// exactly the same bytes.
func roundTrip(b []byte) error {
	r, err := core.DecodeResults(b)
	if err != nil {
		return fmt.Errorf("round trip: %w", err)
	}
	if again := core.EncodeResults(r); !bytes.Equal(again, b) {
		return fmt.Errorf("round trip: %d bytes re-encode to %d different bytes", len(b), len(again))
	}
	return nil
}

// conserved checks that a run retired exactly the memory instructions its
// trace holds.
func conserved(r core.Results, s trace.Summary) error {
	if r.GPU.MemInsts != s.MemInsts {
		return fmt.Errorf("conservation: %s/%s retired %d memory instructions, trace has %d",
			r.Workload, r.Design, r.GPU.MemInsts, s.MemInsts)
	}
	return nil
}

// digest is a sha256 over labelled canonical byte strings, taken in the
// order they are added (the workload's plan order), so two runs agree
// only if every simulated statistic agrees.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(label string, b []byte) {
	var n [binary.MaxVarintLen64]byte
	d.h.Write(n[:binary.PutUvarint(n[:], uint64(len(label)))])
	d.h.Write([]byte(label))
	d.h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
