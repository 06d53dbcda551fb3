package frame

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzFrameDecode throws arbitrary byte strings at both decode paths. The
// contract under fuzzing: decoding either succeeds or returns an error —
// never panics, never allocates beyond the declared frame cap — and
// whatever Decode accepts must re-encode to the identical bytes it consumed
// (the codec has no redundant representations).
func FuzzFrameDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	f.Add([]byte(nil))
	f.Add(Append(nil, 0, 0, nil))
	f.Add(Append(nil, 3, 1, randRecords(rng, 2)))
	f.Add(Append(nil, 1<<30, 255, randRecords(rng, 9)))
	long := Append(nil, 7, 2, randRecords(rng, 40))
	f.Add(long[:len(long)-5]) // truncated record slab
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(AppendFrame(nil, &Header{Round: 3, Peer: 1, Report: Report{Stepped: 5, Sent: 2, Halts: 1, MinWake: 9,
		Err: "congest: bandwidth violation on edge 0→1 in round 3"}}, randRecords(rng, 3)))
	f.Add(AppendFrame(nil, &Header{Round: math.MaxInt32, Peer: math.MaxInt32, Report: Report{Stepped: math.MaxInt64,
		Sent: math.MaxInt64, Halts: math.MaxInt32, MinWake: math.MinInt32, Err: strings.Repeat("\xff", MaxErrBytes)}}, nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		var h Header
		recs, rest, err := DecodeFrame(b, &h, nil)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("Decode error not tagged ErrFrame: %v", err)
			}
		} else {
			consumed := b[:len(b)-len(rest)]
			re := AppendFrame(nil, &h, recs)
			if !bytes.Equal(re, consumed) {
				t.Fatalf("accepted frame does not re-encode to its input: %d vs %d bytes", len(re), len(consumed))
			}
		}

		rd := NewReader(bytes.NewReader(b))
		if _, _, rerr := rd.ReadFrame(&h); rerr != nil {
			ok := errors.Is(rerr, ErrFrame) || errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF)
			if !ok {
				t.Fatalf("ReadFrame error not frame/io-tagged: %v", rerr)
			}
		}
	})
}
