package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func randRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			To:    rng.Int31(),
			From:  rng.Int31(),
			Seq:   rng.Int31(),
			Value: rng.Int63() - rng.Int63(),
			Aux:   rng.Int63() - rng.Int63(),
			Bits:  rng.Int31(),
			Kind:  uint8(rng.Intn(256)),
			Flags: uint8(rng.Intn(256)),
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 100} {
		recs := randRecords(rng, n)
		b := Append(nil, 42, 3, recs)
		round, peer, got, rest, err := Decode(b, nil)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if round != 42 || peer != 3 {
			t.Fatalf("n=%d: got round %d peer %d, want 42/3", n, round, peer)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d trailing bytes", n, len(rest))
		}
		if n == 0 {
			if len(got) != 0 {
				t.Fatalf("empty frame decoded %d records", len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("n=%d: records differ after round trip", n)
		}
	}
}

// TestReportRoundTrip: the round report in the header survives encoding
// at its extremes — the largest counts, both MinWake signs, an error text
// at the cap — and an overlong error text is cut to MaxErrBytes.
func TestReportRoundTrip(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(5)), 3)
	long := strings.Repeat("x", MaxErrBytes+100)
	for _, h := range []Header{
		{Round: 0, Peer: 0},
		{Round: 7, Peer: 2, Report: Report{Stepped: 3, Sent: 9, Halts: 1, MinWake: math.MaxInt32}},
		{Round: math.MaxInt32, Peer: math.MaxInt32, Report: Report{Stepped: math.MaxInt64, Sent: math.MaxInt64,
			Halts: math.MaxInt32, MinWake: math.MinInt32, Err: "congest: bandwidth violation"}},
		{Round: 1, Peer: 1, Report: Report{Err: long[:MaxErrBytes]}},
	} {
		b := AppendFrame(nil, &h, recs)
		if want := OverheadBytes + len(h.Err) + len(recs)*RecordBytes; len(b) != want {
			t.Fatalf("%+v: encoded %d bytes, want %d", h.Report, len(b), want)
		}
		var got Header
		out, rest, err := DecodeFrame(b, &got, nil)
		if err != nil {
			t.Fatalf("%+v: decode: %v", h.Report, err)
		}
		if got != h || len(rest) != 0 || !reflect.DeepEqual(out, recs) {
			t.Fatalf("round trip changed the frame:\n  got  %+v\n  want %+v", got, h)
		}
	}
	var got Header
	if _, _, err := DecodeFrame(AppendFrame(nil, &Header{Report: Report{Err: long}}, nil), &got, nil); err != nil {
		t.Fatal(err)
	}
	if got.Err != long[:MaxErrBytes] {
		t.Fatalf("overlong error text kept %d bytes, want %d", len(got.Err), MaxErrBytes)
	}
}

func TestDecodeConcatenated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randRecords(rng, 4)
	b := randRecords(rng, 2)
	buf := Append(Append(nil, 1, 0, a), 1, 1, b)
	_, peer, got, rest, err := Decode(buf, nil)
	if err != nil || peer != 0 || !reflect.DeepEqual(got, a) {
		t.Fatalf("first frame: peer=%d err=%v", peer, err)
	}
	_, peer, got, rest, err = Decode(rest, got[:0])
	if err != nil || peer != 1 || !reflect.DeepEqual(got, b) {
		t.Fatalf("second frame: peer=%d err=%v", peer, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestReaderWriterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]Record{randRecords(rng, 5), nil, randRecords(rng, 17)}
	wrote := 0
	for r, recs := range frames {
		n, err := w.WriteFrame(&Header{Round: r, Peer: 2, Report: Report{Stepped: int64(r), Err: strings.Repeat("e", r)}}, recs)
		if err != nil {
			t.Fatalf("write frame %d: %v", r, err)
		}
		wrote += n
	}
	if wrote != buf.Len() {
		t.Fatalf("reported %d bytes, wrote %d", wrote, buf.Len())
	}
	rd := NewReader(&buf)
	for r, want := range frames {
		var h Header
		got, _, err := rd.ReadFrame(&h)
		if err != nil {
			t.Fatalf("read frame %d: %v", r, err)
		}
		if h.Round != r || h.Peer != 2 || h.Stepped != int64(r) || len(h.Err) != r {
			t.Fatalf("frame %d: got header %+v", r, h)
		}
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("frame %d: want empty, got %d records", r, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(append([]Record(nil), got...), want) {
			t.Fatalf("frame %d: records differ", r)
		}
	}
	if _, _, err := rd.ReadFrame(new(Header)); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

// TestReadFrameAppendRotatesBuffers: ReadFrameAppend decodes into the
// caller's slice (reusing its capacity) instead of the Reader's internal
// one, so several returned frames can be held live at once — the contract
// the pipelined mesh reader's rotating buffers depend on.
func TestReadFrameAppendRotatesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]Record{randRecords(rng, 6), randRecords(rng, 1), nil}
	wrote := 0
	for r, recs := range frames {
		n, err := w.WriteFrame(&Header{Round: r, Peer: 4}, recs)
		if err != nil {
			t.Fatalf("write frame %d: %v", r, err)
		}
		wrote += n
	}
	rd := NewReader(&buf)
	held := make([][]Record, len(frames))
	read := 0
	for r, want := range frames {
		scratch := make([]Record, 0, 8)
		base := &scratch[:1][0]
		var h Header
		out, n, err := rd.ReadFrameAppend(&h, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", r, err)
		}
		read += n
		if h.Round != r || h.Peer != 4 {
			t.Fatalf("frame %d: got round %d peer %d", r, h.Round, h.Peer)
		}
		if len(want) > 0 && &out[0] != base {
			t.Fatalf("frame %d: decode did not reuse the caller's buffer", r)
		}
		if len(out) != len(want) || (len(want) > 0 && !reflect.DeepEqual(out, want)) {
			t.Fatalf("frame %d: records differ after append decode", r)
		}
		held[r] = out
	}
	if read != wrote {
		t.Fatalf("byte accounting: read %d, wrote %d", read, wrote)
	}
	// Every frame must still be intact — no shared backing arrays.
	for r, want := range frames {
		if len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(held[r], want) {
			t.Fatalf("frame %d clobbered by a later read", r)
		}
	}
	if _, _, err := rd.ReadFrameAppend(new(Header), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	good := Append(nil, 5, 1, randRecords(rand.New(rand.NewSource(3)), 3))
	cases := map[string][]byte{
		"empty":          nil,
		"short prefix":   good[:3],
		"truncated body": good[:len(good)-1],
		"truncated head": good[:8],
		"trailing body": func() []byte {
			b := append([]byte(nil), good...)
			b = append(b, 0xFF)
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(),
		"bad magic": func() []byte {
			b := append([]byte(nil), good...)
			b[4] ^= 0xFF
			return b
		}(),
		"oversized prefix": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b, MaxFrameBytes+1)
			return b
		}(),
		"count mismatch": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[16:], 2)
			return b
		}(),
		"negative round": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[8:], 0xFFFFFFFF)
			return b
		}(),
		"negative halts": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[36:], 0xFFFFFFFF)
			return b
		}(),
		"error length mismatch": func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[44:], 1)
			return b
		}(),
		"overlong error": func() []byte {
			b := AppendFrame(nil, &Header{Report: Report{Err: strings.Repeat("e", MaxErrBytes)}}, nil)
			b = append(b, 'e')
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			binary.LittleEndian.PutUint32(b[44:], MaxErrBytes+1)
			return b
		}(),
		"old magic": func() []byte {
			b := append([]byte(nil), good...)
			b[7] = '1'
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, _, _, err := Decode(b, nil); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: want ErrFrame, got %v", name, err)
		}
	}
}

func TestReaderRejectsOversizedPrefixBeforeAllocating(t *testing.T) {
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], MaxFrameBytes+7)
	rd := NewReader(bytes.NewReader(head[:]))
	if _, _, err := rd.ReadFrame(new(Header)); !errors.Is(err, ErrFrame) {
		t.Fatalf("want ErrFrame on oversized prefix, got %v", err)
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(4)), 64)
	b := Append(nil, 1, 0, recs)
	scratch := make([]Record, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		_, _, out, _, err := Decode(b, scratch[:0])
		if err != nil || len(out) != 64 {
			t.Fatalf("decode: %v (%d records)", err, len(out))
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Decode allocates %.1f times per frame", allocs)
	}
}
