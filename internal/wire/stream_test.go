package wire

import (
	"bytes"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// ---- trace chunk + streamed result codecs ----

func testTrace(n int) []sim.TracePoint {
	tr := make([]sim.TracePoint, n)
	for i := range tr {
		tr[i] = sim.TracePoint{T: float64(i) * 0.25, Pos: geom.V(float64(i), -float64(i)*0.5)}
	}
	return tr
}

func TestTraceChunkRoundTrip(t *testing.T) {
	pts := testTrace(7)
	for _, which := range []byte{TraceChunkA, TraceChunkB} {
		w, idx, got, err := DecodeTraceChunk(EncodeTraceChunk(which, 3, pts), nil)
		if err != nil {
			t.Fatal(err)
		}
		if w != which || idx != 3 || !reflect.DeepEqual(got, pts) {
			t.Fatalf("round trip changed chunk: which %d idx %d len %d", w, idx, len(got))
		}
	}
	// Decoding appends onto dst: two chunks reassemble one trace.
	half := len(pts) / 2
	var asm []sim.TracePoint
	_, _, asm, err := DecodeTraceChunk(EncodeTraceChunk(TraceChunkA, 0, pts[:half]), asm)
	if err != nil {
		t.Fatal(err)
	}
	_, _, asm, err = DecodeTraceChunk(EncodeTraceChunk(TraceChunkA, 1, pts[half:]), asm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asm, pts) {
		t.Fatal("two-chunk reassembly differs from the original trace")
	}
}

func TestTraceChunkRejectsBadInput(t *testing.T) {
	pts := testTrace(3)
	good := EncodeTraceChunk(TraceChunkB, 1, pts)
	if _, _, _, err := DecodeTraceChunk(good[:len(good)-2], nil); err == nil {
		t.Error("truncated chunk accepted")
	}
	if _, _, _, err := DecodeTraceChunk(append(append([]byte(nil), good...), 0), nil); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, _, _, err := DecodeTraceChunk(EncodeTraceChunk(9, 0, pts), nil); err == nil {
		t.Error("unknown trace tag accepted")
	}
	// An empty trace sends no chunks at all, so a zero-point chunk is a
	// protocol violation.
	if _, _, _, err := DecodeTraceChunk(EncodeTraceChunk(TraceChunkA, 0, nil), nil); err == nil {
		t.Error("empty chunk accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = Version + 1
	if _, _, _, err := DecodeTraceChunk(bad, nil); err == nil {
		t.Error("wrong version accepted")
	}
	// On error dst must come back unchanged, not half-extended.
	dst := testTrace(2)
	if _, _, out, err := DecodeTraceChunk(good[:len(good)-2], dst); err == nil || len(out) != len(dst) {
		t.Errorf("failed decode returned %d points, want the original %d", len(out), len(dst))
	}
}

func TestStreamedResultRoundTrip(t *testing.T) {
	r := testResult()
	got, nA, nB, err := DecodeStreamedResult(EncodeStreamedResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if int(nA) != len(r.TraceA) || int(nB) != len(r.TraceB) {
		t.Fatalf("counts %d/%d, want %d/%d", nA, nB, len(r.TraceA), len(r.TraceB))
	}
	// The closer carries scalars only; grafting the original traces back
	// must reproduce the full result bit-exactly.
	got.TraceA, got.TraceB = r.TraceA, r.TraceB
	if !bytes.Equal(EncodeResult(got), EncodeResult(r)) {
		t.Fatal("streamed scalars + traces do not reassemble the result")
	}

	bad := EncodeStreamedResult(r)
	if _, _, _, err := DecodeStreamedResult(bad[:len(bad)-1]); err == nil {
		t.Error("truncated streamed result accepted")
	}
	if _, _, _, err := DecodeStreamedResult(append(append([]byte(nil), bad...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// ---- stateful frame I/O ----

// pipeWriterReader builds a FrameWriter/FrameReader pair over one
// buffer, optionally with compression negotiated on both ends.
func pipeWriterReader(buf *bytes.Buffer, compress bool) (*FrameWriter, *FrameReader) {
	fw := NewFrameWriter(buf)
	fr := NewFrameReader(buf)
	if compress {
		fw.EnableCompression(1)
		fr.EnableCompression()
	}
	return fw, fr
}

func TestFrameWriterReaderRoundTrip(t *testing.T) {
	// Payload shapes: tiny, compressible, incompressible-ish, and a
	// real encoded result.
	incompressible := make([]byte, 4096)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range incompressible {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		incompressible[i] = byte(x)
	}
	payloads := [][]byte{
		[]byte("x"),
		bytes.Repeat([]byte("rendezvous "), 1000),
		incompressible,
		AppendSeq(7, EncodeResult(testResult())),
		make([]byte, 2*frameChunk+123), // crosses the probe chunk
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		fw, fr := pipeWriterReader(&buf, compress)
		for i, p := range payloads {
			if err := fw.WriteFrame(FrameResult, p); err != nil {
				t.Fatal(err)
			}
			typ, pb, err := fr.ReadFrame()
			if err != nil {
				t.Fatalf("compress=%v payload %d: %v", compress, i, err)
			}
			if typ != FrameResult || !bytes.Equal(pb.B, p) {
				t.Fatalf("compress=%v payload %d: decoded bytes differ (typ %d, %d vs %d bytes)",
					compress, i, typ, len(pb.B), len(p))
			}
			pb.Release()
		}
		tx, rx := fw.Stats(), fr.Stats()
		if tx.Raw == 0 || tx.Wire == 0 || tx != rx {
			t.Fatalf("compress=%v stats disagree: tx %+v rx %+v", compress, tx, rx)
		}
		if compress && tx.Wire >= tx.Raw {
			t.Fatalf("compression never shrank the stream: %+v", tx)
		}
		if !compress && tx.Wire != tx.Raw {
			t.Fatalf("raw stream counted unequal raw/wire bytes: %+v", tx)
		}
	}
}

// TestFrameWriterSeqMatchesAppendSeq pins the zero-allocation seq path
// to the canonical bytes of the allocating one.
func TestFrameWriterSeqMatchesAppendSeq(t *testing.T) {
	var a, b bytes.Buffer
	fw := NewFrameWriter(&a)
	if err := fw.WriteFrameSeq(FrameJob, 99, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, FrameJob, AppendSeq(99, []byte("payload"))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteFrameSeq bytes differ from WriteFrame+AppendSeq")
	}
}

// TestFrameWriterInteropWithPackageReader: frames a raw FrameWriter
// emits are bit-identical to package WriteFrame, so the chaos proxy and
// old-style readers parse them unchanged; compressed frames pass through
// package ReadFrame opaquely (type byte keeps the bit, payload is the
// deflate body) — what the proxy forwards without understanding.
func TestFrameWriterInteropWithPackageReader(t *testing.T) {
	payload := bytes.Repeat([]byte("interop "), 512)
	var raw bytes.Buffer
	fw := NewFrameWriter(&raw)
	if err := fw.WriteFrame(FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteFrame(&want, FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), want.Bytes()) {
		t.Fatal("raw FrameWriter output differs from package WriteFrame")
	}

	var comp bytes.Buffer
	cw := NewFrameWriter(&comp)
	cw.EnableCompression(1)
	if err := cw.WriteFrame(FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(&comp)
	if err != nil {
		t.Fatal(err)
	}
	if typ&compressedBit == 0 {
		t.Fatal("compressible payload went out uncompressed")
	}
	// Re-framed, a compressed-negotiated reader recovers the bytes.
	var again bytes.Buffer
	if err := WriteFrame(&again, typ, body); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&again)
	fr.EnableCompression()
	gt, pb, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Release()
	if gt != FrameResult || !bytes.Equal(pb.B, payload) {
		t.Fatal("proxy-style re-framed compressed frame did not decode bit-exactly")
	}
}

func TestFrameReaderRejectsUnnegotiatedCompression(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.EnableCompression(1)
	if err := fw.WriteFrame(FrameResult, bytes.Repeat([]byte("z"), 1024)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf) // never negotiated
	if _, _, err := fr.ReadFrame(); err == nil {
		t.Fatal("compressed frame accepted on a stream that never negotiated compression")
	}
}

func TestFrameReaderRejectsCorruptCompressed(t *testing.T) {
	build := func(mutate func([]byte) []byte) *FrameReader {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		fw.EnableCompression(1)
		if err := fw.WriteFrame(FrameResult, bytes.Repeat([]byte("q"), 2048)); err != nil {
			panic(err)
		}
		b := mutate(append([]byte(nil), buf.Bytes()...))
		fr := NewFrameReader(bytes.NewReader(b))
		fr.EnableCompression()
		return fr
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"raw length zero": func(b []byte) []byte {
			b[5], b[6], b[7], b[8] = 0, 0, 0, 0
			return b
		},
		"raw length shorter than stream": func(b []byte) []byte {
			b[5], b[6], b[7], b[8] = 0, 0, 0, 1
			return b
		},
		"raw length longer than stream": func(b []byte) []byte {
			b[5], b[6], b[7] = 0, 0x10, 0
			return b
		},
		"torn deflate body": func(b []byte) []byte {
			nb := b[:len(b)-4]
			binary4(nb, uint32(len(nb)-4))
			return nb
		},
	} {
		if _, _, err := build(mutate).ReadFrame(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// binary4 rewrites a frame's 4-byte length prefix in place.
func binary4(b []byte, n uint32) {
	b[0], b[1], b[2], b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
}

func TestCompressHintRoundTrip(t *testing.T) {
	for _, n := range []int{1, 256, 1 << 20} {
		got, err := DecodeCompressHint(EncodeCompressHint(n))
		if err != nil || got != n {
			t.Fatalf("hint %d: got %d err %v", n, got, err)
		}
	}
	if _, err := DecodeCompressHint(EncodeCompressHint(0)); err == nil {
		t.Error("zero compress hint accepted")
	}
	if _, err := DecodeCompressHint(append(EncodeCompressHint(2), 9)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// ---- allocation pinning ----

// TestWirePoolAllocFree pins the pooled wire hot path at zero
// steady-state allocations per frame round trip — raw and compressed.
// Everything the path needs (assembly buffers, payload buffers, flate
// state) is either owned by the writer/reader or rented from the pool
// and returned by Release. Under the race detector the round trips
// still run, but the count is not asserted: sync.Pool drops a random
// quarter of Puts there, and each dropped Buf costs a refill (the Buf
// and its backing array) on the next Get.
func TestWirePoolAllocFree(t *testing.T) {
	payload := bytes.Repeat([]byte("steady state "), 300) // ~3.9 KB, compressible
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		fw, fr := pipeWriterReader(&buf, compress)
		roundTrip := func() {
			buf.Reset()
			if err := fw.WriteFrameSeq(FrameResult, 42, payload); err != nil {
				t.Fatal(err)
			}
			typ, pb, err := fr.ReadFrame()
			if err != nil || typ != FrameResult {
				t.Fatalf("typ %d err %v", typ, err)
			}
			pb.Release()
		}
		for i := 0; i < 8; i++ {
			roundTrip() // warm the pools and the flate state
		}
		avg := testing.AllocsPerRun(200, roundTrip)
		if raceEnabled {
			t.Logf("compress=%v: %.2f allocs per frame round trip under -race (pool drops; not asserted)", compress, avg)
			continue
		}
		if avg != 0 {
			t.Errorf("compress=%v: %.2f allocs per frame round trip, want 0", compress, avg)
		}
	}
}

// TestReadFrameLargePayloadAllocs pins the chunked-read fix: a body
// larger than one chunk costs one body allocation (plus none for the
// probe, which is pooled) — not a fresh zero-filled temp per chunk.
func TestReadFrameLargePayloadAllocs(t *testing.T) {
	payload := make([]byte, 2*frameChunk+12345)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResult, payload); err != nil {
		t.Fatal(err)
	}
	whole := append([]byte(nil), buf.Bytes()...)
	r := bytes.NewReader(nil)
	// GC off for the measurement: each run allocates a multi-megabyte
	// body, and the collections that triggers clear chunkScratch, which
	// would count pool refills against the read path.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(20, func() {
		r.Reset(whole)
		if _, _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("%.1f allocs per multi-chunk ReadFrame, want <= 2 (header + one body, probe pooled)", avg)
	}
}

// ---- benchmarks ----

func benchPayload() []byte {
	return AppendSeq(1, EncodeResult(sim.Result{
		Segments: 1 << 20,
		TraceA:   testTrace(4096),
		TraceB:   testTrace(4096),
	}))
}

func BenchmarkFrameWriteRaw(b *testing.B) {
	payload := benchPayload()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fw.WriteFrame(FrameResult, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameWriteCompressed(b *testing.B) {
	payload := benchPayload()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.EnableCompression(1)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fw.WriteFrame(FrameResult, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload))/float64(buf.Len()), "ratio")
}

func BenchmarkFrameRoundTripCompressed(b *testing.B) {
	payload := benchPayload()
	var buf bytes.Buffer
	fw, fr := pipeWriterReader(&buf, true)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fw.WriteFrame(FrameResult, payload); err != nil {
			b.Fatal(err)
		}
		_, pb, err := fr.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		pb.Release()
	}
}
