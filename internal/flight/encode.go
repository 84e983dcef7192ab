package flight

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// The two export formats. JSONL is the greppable, diffable form (one
// object per line, fields in fixed order, shortest-round-trip float
// formatting — identical values encode to identical bytes). The binary
// form is the compact one: fixed 68-byte little-endian records behind a
// 24-byte header. Both start with a magic line/prefix so ReadFile can
// sniff them.

// jsonlMagic is the first line of a JSONL recording: a header object
// carrying the format version and the dropped-event count.
const jsonlVersion = 1

// binMagic opens a binary recording.
var binMagic = [8]byte{'L', '1', '5', 'F', 'L', 'T', '0', '1'}

// binRecordSize is the fixed encoded size of one event.
const binRecordSize = 68

// AppendJSONL appends the deterministic JSONL encoding of the recording
// to dst and returns the extended slice. The first line is a header
// object ({"flight":1,"events":N,"dropped":D}); each following line is
// one event with fields in fixed order.
func AppendJSONL(dst []byte, rec Recording) []byte {
	dst = append(dst, `{"flight":`...)
	dst = strconv.AppendInt(dst, jsonlVersion, 10)
	dst = append(dst, `,"events":`...)
	dst = strconv.AppendInt(dst, int64(len(rec.Events)), 10)
	dst = append(dst, `,"dropped":`...)
	dst = strconv.AppendUint(dst, rec.Dropped, 10)
	dst = append(dst, "}\n"...)
	for _, e := range rec.Events {
		dst = appendEventJSON(dst, e)
		dst = append(dst, '\n')
	}
	return dst
}

func appendEventJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"k":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","t":`...)
	dst = appendFloat(dst, e.Time)
	dst = append(dst, `,"task":`...)
	dst = strconv.AppendInt(dst, int64(e.Task), 10)
	dst = append(dst, `,"job":`...)
	dst = strconv.AppendInt(dst, int64(e.Job), 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(e.Node), 10)
	dst = append(dst, `,"core":`...)
	dst = strconv.AppendInt(dst, int64(e.Core), 10)
	dst = append(dst, `,"cl":`...)
	dst = strconv.AppendInt(dst, int64(e.Cluster), 10)
	dst = append(dst, `,"wave":`...)
	dst = strconv.AppendInt(dst, int64(e.Wave), 10)
	dst = append(dst, `,"a":`...)
	dst = appendFloat(dst, e.A)
	dst = append(dst, `,"b":`...)
	dst = appendFloat(dst, e.B)
	dst = append(dst, `,"c":`...)
	dst = appendFloat(dst, e.C)
	dst = append(dst, '}')
	return dst
}

// appendFloat uses shortest-round-trip formatting, which maps equal
// float64 values to equal byte strings — the property the determinism
// contract rests on.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// jsonlHeader mirrors the header line for decoding.
type jsonlHeader struct {
	Flight  int    `json:"flight"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// jsonlEvent mirrors one event line for decoding.
type jsonlEvent struct {
	Seq  uint64  `json:"seq"`
	K    string  `json:"k"`
	T    float64 `json:"t"`
	Task int32   `json:"task"`
	Job  int32   `json:"job"`
	Node int32   `json:"node"`
	Core int32   `json:"core"`
	Cl   int32   `json:"cl"`
	Wave int32   `json:"wave"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	C    float64 `json:"c"`
}

// kindByName inverts kindNames for decoding.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// DecodeJSONL parses a JSONL recording.
func DecodeJSONL(r io.Reader) (Recording, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rec Recording
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return rec, fmt.Errorf("flight: %w", err)
		}
		return rec, fmt.Errorf("flight: empty recording")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Flight == 0 {
		return rec, fmt.Errorf("flight: not a JSONL recording (bad header line)")
	}
	if hdr.Flight != jsonlVersion {
		return rec, fmt.Errorf("flight: unsupported recording version %d", hdr.Flight)
	}
	rec.Dropped = hdr.Dropped
	rec.Events = make([]Event, 0, hdr.Events)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return rec, fmt.Errorf("flight: event %d: %w", len(rec.Events), err)
		}
		kind, ok := kindByName[je.K]
		if !ok {
			return rec, fmt.Errorf("flight: event %d: unknown kind %q", len(rec.Events), je.K)
		}
		e := Event{
			Seq: je.Seq, Kind: kind, Time: je.T,
			Task: je.Task, Job: je.Job, Node: je.Node,
			Core: je.Core, Cluster: je.Cl, Wave: je.Wave,
			A: je.A, B: je.B, C: je.C,
		}
		if err := checkPlacement(len(rec.Events), e); err != nil {
			return rec, err
		}
		rec.Events = append(rec.Events, e)
	}
	if err := sc.Err(); err != nil {
		return rec, fmt.Errorf("flight: %w", err)
	}
	return rec, nil
}

// AppendBinary appends the compact binary encoding to dst: an 8-byte
// magic, event and dropped counts, then fixed-width little-endian
// records.
func AppendBinary(dst []byte, rec Recording) []byte {
	dst = append(dst, binMagic[:]...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(rec.Events)))
	binary.LittleEndian.PutUint64(hdr[8:], rec.Dropped)
	dst = append(dst, hdr[:]...)
	var b [binRecordSize]byte
	for _, e := range rec.Events {
		binary.LittleEndian.PutUint64(b[0:], e.Seq)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Time))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(e.A))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(e.B))
		binary.LittleEndian.PutUint64(b[32:], math.Float64bits(e.C))
		binary.LittleEndian.PutUint32(b[40:], uint32(e.Task))
		binary.LittleEndian.PutUint32(b[44:], uint32(e.Job))
		binary.LittleEndian.PutUint32(b[48:], uint32(e.Node))
		binary.LittleEndian.PutUint32(b[52:], uint32(e.Core))
		binary.LittleEndian.PutUint32(b[56:], uint32(e.Cluster))
		binary.LittleEndian.PutUint32(b[60:], uint32(e.Wave))
		b[64] = byte(e.Kind)
		b[65], b[66], b[67] = 0, 0, 0
		dst = append(dst, b[:]...)
	}
	return dst
}

// DecodeBinary parses a binary recording.
func DecodeBinary(data []byte) (Recording, error) {
	var rec Recording
	if len(data) < len(binMagic)+16 || !bytes.Equal(data[:len(binMagic)], binMagic[:]) {
		return rec, fmt.Errorf("flight: not a binary recording (bad magic)")
	}
	n := binary.LittleEndian.Uint64(data[8:])
	rec.Dropped = binary.LittleEndian.Uint64(data[16:])
	body := data[24:]
	if uint64(len(body)) != n*binRecordSize {
		return rec, fmt.Errorf("flight: truncated recording: %d bytes for %d events", len(body), n)
	}
	rec.Events = make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		b := body[i*binRecordSize:]
		kind := Kind(b[64])
		if int(kind) >= KindCount {
			return rec, fmt.Errorf("flight: event %d: unknown kind %d", i, kind)
		}
		e := Event{
			Seq:     binary.LittleEndian.Uint64(b[0:]),
			Time:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			A:       math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			B:       math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
			C:       math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
			Task:    int32(binary.LittleEndian.Uint32(b[40:])),
			Job:     int32(binary.LittleEndian.Uint32(b[44:])),
			Node:    int32(binary.LittleEndian.Uint32(b[48:])),
			Core:    int32(binary.LittleEndian.Uint32(b[52:])),
			Cluster: int32(binary.LittleEndian.Uint32(b[56:])),
			Wave:    int32(binary.LittleEndian.Uint32(b[60:])),
			Kind:    kind,
		}
		if err := checkPlacement(int(i), e); err != nil {
			return rec, err
		}
		rec.Events = append(rec.Events, e)
	}
	return rec, nil
}

// checkPlacement rejects a dispatch, edge or finish event of event index i
// that names no real node or core: every simulator emits those with both
// set, and a negative one would surface downstream as a bogus timeline row.
func checkPlacement(i int, e Event) error {
	placed := e.Kind == KindDispatch || e.Kind == KindEdge || e.Kind == KindFinish
	if placed && (e.Core < 0 || e.Node < 0) {
		return fmt.Errorf("flight: event %d: %s with core %d, node %d", i, e.Kind, e.Core, e.Node)
	}
	return nil
}

// WriteFile serialises the recording to path: binary when the path ends
// in ".bin", JSONL otherwise.
func WriteFile(path string, rec Recording) error {
	var data []byte
	if isBinPath(path) {
		data = AppendBinary(nil, rec)
	} else {
		data = AppendJSONL(nil, rec)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	return nil
}

// ReadFile loads a recording, sniffing the format from the content.
func ReadFile(path string) (Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Recording{}, fmt.Errorf("flight: %w", err)
	}
	if len(data) >= len(binMagic) && bytes.Equal(data[:len(binMagic)], binMagic[:]) {
		return DecodeBinary(data)
	}
	return DecodeJSONL(bytes.NewReader(data))
}

func isBinPath(path string) bool {
	return len(path) > 4 && path[len(path)-4:] == ".bin"
}
