package trace

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	b := NewBuilder("sample", 3, 2, 2)
	b.Warp().Load(0x1000, 0x2000).Compute(5)
	b.Warp().Store(0x3000).ScratchLoad(2)
	b.Barrier()
	b.Warp().Load(0x4000)
	return b.Build()
}

// encoded is sampleTrace's v4 stream, one chunk per barrier phase.
func encoded(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace().WriteChunked(&buf, ChunkOptions{Budget: 64}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll opens data as a v4 stream and materializes it.
func readAll(data []byte) (*Trace, error) {
	c, err := NewCursor(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Materialize()
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	got, err := readAll(encoded(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip changed the trace")
	}
	if got.Summarize() != tr.Summarize() {
		t.Fatal("summaries differ")
	}
}

func TestWriteDeterministic(t *testing.T) {
	for _, opts := range []ChunkOptions{{}, {Budget: 64}, {Compress: true}} {
		var a, b bytes.Buffer
		if err := sampleTrace().WriteChunked(&a, opts); err != nil {
			t.Fatal(err)
		}
		if err := sampleTrace().WriteChunked(&b, opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%+v: identical traces encoded to different bytes", opts)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "x.ctrace")
	if err := tr.SaveChunked(path, ChunkOptions{}); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("save/load changed the trace")
	}
	if _, err := OpenCursorFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("opening missing file succeeded")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readAll([]byte("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	data := encoded(t)

	bad := append([]byte(nil), data...)
	bad[0] = 'X' // magic
	if _, err := readAll(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[7] = ChunkFormatVersion - 1
	if _, err := readAll(bad); err == nil {
		t.Fatal("old format version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not reported as such: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	data := encoded(t)
	// Flip every byte in turn: each corruption must be caught (by a
	// structural check or a checksum), never panic, never pass.
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xff
		if _, err := readAll(bad); err == nil {
			t.Fatalf("corruption at byte %d/%d accepted", i, len(data))
		}
	}
	// Every truncation must fail too.
	for n := 0; n < len(data); n++ {
		if _, err := readAll(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(data))
		}
	}
}

// hostile builds a header prefix (magic, then flags, name length, asid,
// CU count, warp counts...) declaring absurd sizes, to check the reader
// refuses before allocating.
func hostile(counts ...uint64) []byte {
	b := append([]byte(nil), chunkFileMagic[:]...)
	for _, c := range counts {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// hostileChunk builds a decoded chunk payload: one segment on (0, 0)
// declaring n instructions, followed by body.
func hostileChunk(n uint64, body ...byte) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, n)
	return append(b, body...)
}

func TestReadCapsDeclaredSizes(t *testing.T) {
	headers := map[string][]byte{
		"flags":       hostile(1 << 40),
		"name length": hostile(0, 1<<40),
		"CU count":    hostile(0, 0, 0, 1<<63),
		"warp count":  hostile(0, 0, 0, 1, 1<<40),
	}
	for name, data := range headers {
		if _, err := readAll(data); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("%s: absurd declared size not refused at its cap: %v", name, err)
		}
	}

	c, err := NewCursor(bytes.NewReader(encoded(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	chunks := []struct {
		name, frag string
		payload    []byte
	}{
		{"segment count", "exceeds limit", binary.AppendUvarint(nil, 1<<40)},
		{"inst count", "exceeds limit", hostileChunk(1 << 62)},
		// A large declared instruction count over a tiny payload must
		// fail fast on missing data without allocating the declared
		// amount up front.
		{"inst count over empty body", "bytes remain", hostileChunk(maxInstsPerWarp - 1)},
		{"arena length", "exceeds limit", binary.AppendUvarint(hostileChunk(0), 1<<40)},
	}
	for _, tc := range chunks {
		if _, err := c.parseChunk(tc.payload); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: absurd declared size not refused (want %q): %v", tc.name, tc.frag, err)
		}
	}
}

func TestReadValidatesArenaRefs(t *testing.T) {
	// The writer refuses a trace whose load references past the arena.
	tr := sampleTrace()
	tr.CUs[0].Warps[0][0].Off = uint32(len(tr.Arena)) // now out of bounds
	err := tr.WriteChunked(&bytes.Buffer{}, ChunkOptions{})
	if err == nil {
		t.Fatal("out-of-arena lane reference accepted")
	}
	if !strings.Contains(err.Error(), "arena") {
		t.Fatalf("arena violation not reported as such: %v", err)
	}

	// So does the reader, on a chunk whose load points past its arena.
	c, err := NewCursor(bytes.NewReader(encoded(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rec [instBytes]byte
	rec[0] = byte(Load)
	binary.LittleEndian.PutUint16(rec[1:], 2)
	payload := binary.AppendUvarint(hostileChunk(1, rec[:]...), 1) // arena of 1 address
	payload = binary.LittleEndian.AppendUint64(payload, 0x1000)
	if _, err := c.parseChunk(payload); err == nil || !strings.Contains(err.Error(), "arena") {
		t.Fatalf("chunk with out-of-arena lane reference: err = %v", err)
	}

	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace failed validation: %v", err)
	}
	zero := sampleTrace()
	zero.CUs[0].Warps[0][0].Lanes = 0
	if err := zero.Validate(); err == nil {
		t.Fatal("zero-lane load passed validation")
	}
}
