package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vcache/internal/memory"
)

// buildTestTrace assembles a deterministic multi-warp, multi-phase trace
// with divergent and coalesced accesses, scratch ops, computes and
// barriers — enough variety to exercise every chunk encoding path.
func buildTestTrace(t *testing.T, numCUs, warpsPerCU, phases, warpsPerPhase int) *Trace {
	t.Helper()
	b := NewBuilder("chunktest", 7, numCUs, warpsPerCU)
	emitTestTrace(b, phases, warpsPerPhase)
	return b.Build()
}

func emitTestTrace(b *Builder, phases, warpsPerPhase int) {
	rng := rand.New(rand.NewSource(42))
	for ph := 0; ph < phases; ph++ {
		for wk := 0; wk < warpsPerPhase; wk++ {
			w := b.Warp()
			var addrs []memory.VAddr
			for lane := 0; lane < 8+rng.Intn(24); lane++ {
				addrs = append(addrs, memory.VAddr(rng.Intn(1<<24))&^7)
			}
			w.Load(addrs...)
			w.Compute(uint64(1 + rng.Intn(50)))
			w.ScratchLoad(4)
			base := memory.VAddr(rng.Intn(1 << 22))
			var st []memory.VAddr
			for lane := 0; lane < 16; lane++ {
				st = append(st, base+memory.VAddr(lane*8))
			}
			w.Store(st...)
			w.ScratchStore(2)
		}
		b.Barrier()
	}
}

// chunkTrace encodes tr with WriteChunked and opens a cursor over the
// bytes.
func chunkTrace(t *testing.T, tr *Trace, opts ChunkOptions) (*Cursor, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, opts); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	return c, buf.Bytes()
}

// drainWarp pulls every segment for (cu, warp) and returns the
// concatenated instructions with lane addresses resolved.
func drainWarp(c *Cursor, cu, warp int) (insts []Inst, addrs [][]memory.VAddr) {
	for {
		seg, ok := c.NextSegment(cu, warp)
		if !ok {
			return
		}
		for _, in := range seg.Insts {
			insts = append(insts, in)
			if in.Kind == Load || in.Kind == Store {
				a := append([]memory.VAddr(nil), seg.Arena[in.Off:uint64(in.Off)+uint64(in.Lanes)]...)
				addrs = append(addrs, a)
			} else {
				addrs = append(addrs, nil)
			}
		}
	}
}

// materializedPremap replicates System.Prepare's page walk order over a
// materialized trace: cu-major, warp-major, instruction order, lane order.
func materializedPremap(tr *Trace) []memory.VPN { return tr.FirstTouchVPNs() }

func TestChunkedRoundTrip(t *testing.T) {
	for _, opt := range []ChunkOptions{
		{},                // single big chunk
		{Budget: 1 << 10}, // many small chunks
		{Budget: 1 << 10, Compress: true},
		{Compress: true},
	} {
		opt := opt
		t.Run(fmt.Sprintf("budget=%d,compress=%v", opt.Budget, opt.Compress), func(t *testing.T) {
			tr := buildTestTrace(t, 4, 3, 5, 40)
			c, _ := chunkTrace(t, tr, opt)
			defer c.Close()

			if c.Name() != tr.Name || c.ASID() != tr.ASID {
				t.Fatalf("identity: got (%q, %d), want (%q, %d)", c.Name(), c.ASID(), tr.Name, tr.ASID)
			}
			if c.NumCUs() != len(tr.CUs) {
				t.Fatalf("NumCUs = %d, want %d", c.NumCUs(), len(tr.CUs))
			}
			for cu := range tr.CUs {
				if c.NumWarps(cu) != len(tr.CUs[cu].Warps) {
					t.Fatalf("NumWarps(%d) = %d, want %d", cu, c.NumWarps(cu), len(tr.CUs[cu].Warps))
				}
				for wi, warp := range tr.CUs[cu].Warps {
					if got := c.WarpLen(cu, wi); got != uint64(len(warp)) {
						t.Fatalf("WarpLen(%d,%d) = %d, want %d", cu, wi, got, len(warp))
					}
				}
			}
			// Stream every warp and compare instruction-by-instruction.
			for cu := range tr.CUs {
				for wi, warp := range tr.CUs[cu].Warps {
					insts, addrs := drainWarp(c, cu, wi)
					if len(insts) != len(warp) {
						t.Fatalf("warp (%d,%d): streamed %d insts, want %d", cu, wi, len(insts), len(warp))
					}
					for i, in := range warp {
						got := insts[i]
						if got.Kind != in.Kind || got.Lanes != in.Lanes || got.Cycles != in.Cycles {
							t.Fatalf("warp (%d,%d) inst %d: got %+v, want %+v", cu, wi, i, got, in)
						}
						if in.Kind == Load || in.Kind == Store {
							if !reflect.DeepEqual(addrs[i], append([]memory.VAddr(nil), tr.Addrs(in)...)) {
								t.Fatalf("warp (%d,%d) inst %d: lane addresses differ", cu, wi, i)
							}
						}
					}
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("cursor error after drain: %v", err)
			}
		})
	}
}

func TestChunkedSummaryMatchesMaterialized(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 4, 30)
	c, _ := chunkTrace(t, tr, ChunkOptions{Budget: 1 << 11})
	defer c.Close()
	want := tr.Summarize()
	if got := c.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("footer summary\n got %+v\nwant %+v", got, want)
	}
}

func TestChunkedPremapMatchesPrepareOrder(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 4, 30)
	// Exercise several interleavings: premap order must be independent of
	// chunking.
	for _, budget := range []int{0, 1 << 10, 1 << 14} {
		c, _ := chunkTrace(t, tr, ChunkOptions{Budget: budget})
		want := materializedPremap(tr)
		if got := c.Premap(); !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: premap order differs (got %d pages, want %d)", budget, len(got), len(want))
		}
		c.Close()
	}
}

func TestChunkedMultiChunkAndProgress(t *testing.T) {
	tr := buildTestTrace(t, 4, 3, 5, 40)
	var calls int
	var bytesSeen int
	var buf bytes.Buffer
	err := tr.WriteChunked(&buf, ChunkOptions{Budget: 1 << 10, OnChunk: func(i, stored int) {
		if i != calls {
			t.Fatalf("OnChunk index %d, want %d", i, calls)
		}
		calls++
		bytesSeen += stored
	}})
	if err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	if calls < 4 {
		t.Fatalf("expected several chunks at a 1KB budget, got %d", calls)
	}
	if bytesSeen == 0 {
		t.Fatal("OnChunk reported zero stored bytes")
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	if c.NumChunks() != calls {
		t.Fatalf("NumChunks = %d, OnChunk saw %d", c.NumChunks(), calls)
	}
}

func TestStreamingBuilderMatchesMaterialized(t *testing.T) {
	// The same generator body run through a streaming builder must
	// reproduce the materialized trace exactly, including arena order
	// (generation order == emission order), so Materialize round-trips to
	// an identical trace.
	mat := NewBuilder("chunktest", 7, 4, 3)
	emitTestTrace(mat, 5, 40)
	want := mat.Build()

	var buf bytes.Buffer
	cw := NewChunkWriter(&buf, "chunktest", 7, 4, 3, ChunkOptions{Budget: 1 << 12})
	sb := NewStreamingBuilder(cw)
	emitTestTrace(sb, 5, 40)
	if sb.Build() != nil {
		t.Fatal("streaming builder Build() should return nil")
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer c.Close()
	got, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("streamed trace materializes to a different trace than direct generation")
	}
	if s := cw.Summary(); !reflect.DeepEqual(s, want.Summarize()) {
		t.Fatalf("writer summary\n got %+v\nwant %+v", s, want.Summarize())
	}
}

func TestChunkedVersionMismatchErrors(t *testing.T) {
	// A file from the retired whole-file format: right magic, version 3.
	old := append([]byte("VCTRACE\x03"), make([]byte, 32)...)
	_, err := NewCursor(bytes.NewReader(old))
	if err == nil {
		t.Fatal("cursor accepted a v3 whole-file trace")
	}
	if !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "tracegen -o") {
		t.Fatalf("v3 rejection does not name the version and the fix: %v", err)
	}
}

func TestChunkedCorruptionDetected(t *testing.T) {
	tr := buildTestTrace(t, 2, 2, 3, 10)
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, ChunkOptions{Budget: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	// Truncation at any prefix must fail at open or during streaming.
	for _, n := range []int{0, 7, 8, len(orig) / 3, len(orig) / 2, len(orig) - 1} {
		if _, err := readAll(orig[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// A bit flip anywhere must fail at open or during streaming: the
	// header, chunk payloads and footer are all crc'd. Sample positions
	// across the whole file.
	step := len(orig)/97 + 1
	for pos := 0; pos < len(orig); pos += step {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x40
		if bytes.Equal(mut, orig) {
			continue
		}
		if _, err := readAll(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded without error", pos)
		}
	}
}

func TestChunkedEmptyishTrace(t *testing.T) {
	b := NewBuilder("tiny", 1, 1, 1)
	b.Warp().Compute(3)
	tr := b.Build()
	c, _ := chunkTrace(t, tr, ChunkOptions{})
	defer c.Close()
	insts, _ := drainWarp(c, 0, 0)
	if len(insts) != 1 || insts[0].Kind != Compute || insts[0].Cycles != 3 {
		t.Fatalf("tiny trace streamed %+v", insts)
	}
	if s := c.Summary(); s.ComputeInsts != 1 || s.MemInsts != 0 {
		t.Fatalf("tiny summary %+v", s)
	}
}

func FuzzChunkRoundTrip(f *testing.F) {
	small := buildFuzzSeed(1, 1, 1, 2)
	multi := buildFuzzSeed(2, 2, 3, 8)
	var plain, tiny, compressed bytes.Buffer
	if err := multi.WriteChunked(&plain, ChunkOptions{Budget: 1 << 10}); err != nil {
		f.Fatal(err)
	}
	if err := small.WriteChunked(&tiny, ChunkOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := multi.WriteChunked(&compressed, ChunkOptions{Budget: 1 << 10, Compress: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(tiny.Bytes())
	f.Add(compressed.Bytes())
	f.Add([]byte{})
	f.Add(chunkFileMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewCursor(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic — reaching here is success
		}
		defer c.Close()
		tr, err := c.Materialize()
		if err != nil || c.Err() != nil {
			return // mid-stream corruption surfaced as an error: success
		}
		// Anything the cursor fully accepts must be a valid, replayable
		// trace that re-chunks and re-streams to the same materialization.
		tr.Summarize()
		var buf bytes.Buffer
		if err := tr.WriteChunked(&buf, ChunkOptions{Budget: 1 << 10}); err != nil {
			t.Fatalf("re-chunking accepted trace failed: %v", err)
		}
		c2, err := NewCursor(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-opening re-chunked trace failed: %v", err)
		}
		defer c2.Close()
		tr2, err := c2.Materialize()
		if err != nil {
			t.Fatalf("re-materializing failed: %v", err)
		}
		if !bytes.Equal(canonicalBytes(t, tr), canonicalBytes(t, tr2)) {
			t.Fatal("chunked round trip is not stable")
		}
	})
}

// canonicalBytes is tr's single-chunk v4 encoding. The chunk writer
// re-interns lane addresses, so two traces with the same instruction
// streams and lane addresses encode identically even when their arenas
// are laid out differently.
func canonicalBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChunked(&buf, ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func buildFuzzSeed(numCUs, warpsPerCU, phases, perPhase int) *Trace {
	b := NewBuilder("fuzz", 1, numCUs, warpsPerCU)
	emitTestTrace(b, phases, perPhase)
	return b.Build()
}
