package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record is one CONGEST message on the wire: the fixed congest.Message
// fields plus the destination vertex. Field order matches the encoded
// layout; all multi-byte fields are little-endian.
type Record struct {
	// To is the destination vertex (owned by the receiving peer).
	To int32
	// From is the sending vertex (owned by the sending peer), or — for the
	// engine's bounce of a volatile send — the unreachable neighbor.
	From int32
	// Seq is the message sequence number.
	Seq int32
	// Value and Aux are the two integer payload words.
	Value int64
	Aux   int64
	// Bits is the size charged against the CONGEST bandwidth budget.
	Bits int32
	// Kind is the protocol message tag.
	Kind uint8
	// Flags carries the congest message flags (FlagVolatile, FlagBounced).
	Flags uint8
}

// Report is the sending peer's control report for the frame's round: its
// share of the inputs to the engine's global stop, abort and fast-forward
// decision. Every peer folds the reports of all P frames of a round the
// same way, so every peer takes the same decision in the same round.
type Report struct {
	// Stepped is the number of Step invocations this round.
	Stepped int64
	// Sent is the number of non-bounced messages the sender emitted this
	// round. Each is delivered exactly once, so the sum over peers is the
	// round's delivered count.
	Sent int64
	// Halts is the number of nodes that halted this round.
	Halts int32
	// MinWake is the earliest wake-up round among stepped-over sleepers
	// (the engine writes math.MaxInt32 when there are none).
	MinWake int32
	// Err is the sender's run error, "" when healthy. Encoding keeps at
	// most MaxErrBytes of it.
	Err string
}

// Header is everything a frame carries ahead of its records.
type Header struct {
	// Round is the round the traffic was sent in; Peer the sending peer.
	Round, Peer int
	Report
}

// RecordBytes is the encoded size of one Record.
const RecordBytes = 34

// headerBytes is the fixed header size, length prefix included: prefix,
// magic, round, peer, count, stepped, sent, halts, min wake and error
// length.
const headerBytes = 48

// MaxErrBytes bounds a frame's error text, so a peer's failure report can
// never inflate a frame.
const MaxErrBytes = 4096

// MaxFrameBytes bounds the payload length a decoder will accept: a guard
// against allocating attacker-controlled (or corrupted) sizes. 1 GiB of
// records is far beyond any round's traffic on a graph that fits in memory.
const MaxFrameBytes = 1 << 30

// magic tags every frame; a mismatch means the stream is not (or no longer)
// frame-aligned, or was written by an older layout.
const magic = uint32('L') | uint32('M')<<8 | uint32('F')<<16 | uint32('2')<<24

// ErrFrame tags every decoding failure.
var ErrFrame = errors.New("frame: malformed frame")

// AppendFrame encodes one frame — prefix, header and records — onto dst
// and returns the extended slice. The records are written in the order
// given; the engine's contract is (ascending sender id, send order). An
// error text longer than MaxErrBytes is cut to that length.
func AppendFrame(dst []byte, h *Header, recs []Record) []byte {
	errText := h.Err
	if len(errText) > MaxErrBytes {
		errText = errText[:MaxErrBytes]
	}
	payload := headerBytes - 4 + len(errText) + len(recs)*RecordBytes
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Peer))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Stepped))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Sent))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Halts))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.MinWake))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(errText)))
	dst = append(dst, errText...)
	for i := range recs {
		dst = appendRecord(dst, &recs[i])
	}
	return dst
}

// Append encodes one frame with an empty report (see AppendFrame).
func Append(dst []byte, round, peer int, recs []Record) []byte {
	return AppendFrame(dst, &Header{Round: round, Peer: peer}, recs)
}

func appendRecord(dst []byte, r *Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.To))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Seq))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Value))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Aux))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Bits))
	return append(dst, r.Kind, r.Flags)
}

func decodeRecord(b []byte, r *Record) {
	r.To = int32(binary.LittleEndian.Uint32(b))
	r.From = int32(binary.LittleEndian.Uint32(b[4:]))
	r.Seq = int32(binary.LittleEndian.Uint32(b[8:]))
	r.Value = int64(binary.LittleEndian.Uint64(b[12:]))
	r.Aux = int64(binary.LittleEndian.Uint64(b[20:]))
	r.Bits = int32(binary.LittleEndian.Uint32(b[28:]))
	r.Kind = b[32]
	r.Flags = b[33]
}

// DecodeFrame parses one whole frame from the front of b into h, appending
// its records onto recs (pass a truncated reusable slice to amortize). It
// returns the extended record slice and the rest of b past the frame. Every
// malformation — short prefix, bad magic, oversized or inconsistent
// length, overlong error text, negative counts, truncated records — is an
// ErrFrame-tagged error.
func DecodeFrame(b []byte, h *Header, recs []Record) (out []Record, rest []byte, err error) {
	if len(b) < 4 {
		return recs, b, fmt.Errorf("%w: %d bytes, need a 4-byte length prefix", ErrFrame, len(b))
	}
	payload := binary.LittleEndian.Uint32(b)
	if payload > MaxFrameBytes {
		return recs, b, fmt.Errorf("%w: length prefix %d exceeds the %d-byte cap", ErrFrame, payload, MaxFrameBytes)
	}
	if uint32(len(b)-4) < payload {
		return recs, b, fmt.Errorf("%w: truncated frame: prefix says %d bytes, %d available", ErrFrame, payload, len(b)-4)
	}
	body := b[4 : 4+payload]
	n, err := parseHeader(body, h)
	if err != nil {
		return recs, b, err
	}
	return decodeRecords(body[headerBytes-4+len(h.Err):], n, recs), b[4+payload:], nil
}

// Decode parses one whole frame from the front of b like DecodeFrame,
// returning only the round and sending peer of its header.
func Decode(b []byte, recs []Record) (round, peer int, out []Record, rest []byte, err error) {
	var h Header
	out, rest, err = DecodeFrame(b, &h, recs)
	return h.Round, h.Peer, out, rest, err
}

func decodeRecords(body []byte, n int, recs []Record) []Record {
	for i := 0; i < n; i++ {
		var r Record
		decodeRecord(body[i*RecordBytes:], &r)
		recs = append(recs, r)
	}
	return recs
}

// parseHeader validates a frame body (everything after the length prefix),
// fills h and returns the record count. The error text is bounded by
// MaxErrBytes and, with the records, must account for the body exactly.
func parseHeader(body []byte, h *Header) (n int, err error) {
	if len(body) < headerBytes-4 {
		return 0, fmt.Errorf("%w: %d-byte body, need a %d-byte header", ErrFrame, len(body), headerBytes-4)
	}
	if m := binary.LittleEndian.Uint32(body); m != magic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrFrame, m)
	}
	round := int(int32(binary.LittleEndian.Uint32(body[4:])))
	peer := int(int32(binary.LittleEndian.Uint32(body[8:])))
	count := binary.LittleEndian.Uint32(body[12:])
	stepped := int64(binary.LittleEndian.Uint64(body[16:]))
	sent := int64(binary.LittleEndian.Uint64(body[24:]))
	halts := int32(binary.LittleEndian.Uint32(body[32:]))
	errLen := binary.LittleEndian.Uint32(body[40:])
	if errLen > MaxErrBytes {
		return 0, fmt.Errorf("%w: %d-byte error text exceeds the %d-byte cap", ErrFrame, errLen, MaxErrBytes)
	}
	want := uint64(errLen) + uint64(count)*RecordBytes
	if got := uint64(len(body) - (headerBytes - 4)); got != want {
		return 0, fmt.Errorf("%w: count %d and error length %d want %d bytes, body carries %d", ErrFrame, count, errLen, want, got)
	}
	if round < 0 || peer < 0 || stepped < 0 || sent < 0 || halts < 0 {
		return 0, fmt.Errorf("%w: negative round %d, peer %d or report count", ErrFrame, round, peer)
	}
	*h = Header{Round: round, Peer: peer, Report: Report{
		Stepped: stepped, Sent: sent, Halts: halts,
		MinWake: int32(binary.LittleEndian.Uint32(body[36:])),
	}}
	if errLen > 0 {
		h.Err = string(body[headerBytes-4 : headerBytes-4+int(errLen)])
	}
	return int(count), nil
}

// Writer frames records onto an io.Writer, reusing one encode buffer across
// frames. Not safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes and writes one frame, returning the bytes put on the
// wire.
func (fw *Writer) WriteFrame(h *Header, recs []Record) (int, error) {
	fw.buf = AppendFrame(fw.buf[:0], h, recs)
	n, err := fw.w.Write(fw.buf)
	if err != nil {
		return n, fmt.Errorf("frame: write: %w", err)
	}
	return n, nil
}

// Reader reads frames from an io.Reader, reusing its buffers across frames.
// Not safe for concurrent use.
type Reader struct {
	r    io.Reader
	head [4]byte
	buf  []byte
	recs []Record
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads one whole frame into h and returns its records and wire
// size. The record slice is reused by the next ReadFrame; the engine
// consumes it before the next round's exchange. Oversized length prefixes
// fail before any allocation.
func (fr *Reader) ReadFrame(h *Header) (recs []Record, n int, err error) {
	recs, n, err = fr.ReadFrameAppend(h, fr.recs[:0])
	if err != nil {
		return nil, 0, err
	}
	fr.recs = recs // keep the (possibly grown) buffer warm for the next frame
	return recs, n, nil
}

// ReadFrameAppend reads one whole frame into h, appending its records onto
// recs (pass a truncated reusable slice to amortize), and returns the
// extended record slice and wire size. Unlike ReadFrame the returned
// records live in the caller's buffer, so a pipelined reader can rotate
// several buffers and decode the next frame while earlier ones are still
// being consumed. The Reader's internal byte buffers are still reused:
// only one ReadFrameAppend may run at a time.
func (fr *Reader) ReadFrameAppend(h *Header, recs []Record) (out []Record, n int, err error) {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		return recs, 0, fmt.Errorf("frame: read length prefix: %w", err)
	}
	payload := binary.LittleEndian.Uint32(fr.head[:])
	if payload > MaxFrameBytes {
		return recs, 0, fmt.Errorf("%w: length prefix %d exceeds the %d-byte cap", ErrFrame, payload, MaxFrameBytes)
	}
	if cap(fr.buf) < int(payload) {
		fr.buf = make([]byte, payload)
	}
	fr.buf = fr.buf[:payload]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return recs, 0, fmt.Errorf("frame: read %d-byte body: %w", payload, err)
	}
	cnt, err := parseHeader(fr.buf, h)
	if err != nil {
		return recs, 0, err
	}
	return decodeRecords(fr.buf[headerBytes-4+len(h.Err):], cnt, recs), 4 + int(payload), nil
}

// OverheadBytes is the on-wire size of an empty frame with no error text:
// the length prefix plus the header. A frame carrying C records and an
// E-byte error text occupies OverheadBytes + E + C·RecordBytes bytes.
const OverheadBytes = headerBytes
