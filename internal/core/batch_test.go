package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleBatch() *DataBatch {
	return &DataBatch{
		ID:           42,
		CreatedNanos: time.Now().UnixNano(),
		Count:        2,
		Inputs:       []float32{1, 2, 3, 4},
		Predictions:  []float32{0.25, 0.75},
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	for _, codec := range []BatchCodec{JSONCodec{}, BinaryCodec{}} {
		b := sampleBatch()
		data, err := codec.Marshal(b)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := codec.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if got.ID != b.ID || got.CreatedNanos != b.CreatedNanos || got.Count != b.Count {
			t.Fatalf("%s: header mismatch %+v", codec.Name(), got)
		}
		for i := range b.Inputs {
			if got.Inputs[i] != b.Inputs[i] {
				t.Fatalf("%s: input %d mismatch", codec.Name(), i)
			}
		}
		for i := range b.Predictions {
			if got.Predictions[i] != b.Predictions[i] {
				t.Fatalf("%s: prediction %d mismatch", codec.Name(), i)
			}
		}
	}
}

func TestBinaryCodecRoundTripProperty(t *testing.T) {
	codec := BinaryCodec{}
	f := func(id int64, created int64, inputs []float32, nPred uint8) bool {
		b := &DataBatch{ID: id, CreatedNanos: created, Count: 1, Inputs: inputs}
		for i := 0; i < int(nPred)%5; i++ {
			b.Predictions = append(b.Predictions, float32(i))
		}
		data, err := codec.Marshal(b)
		if err != nil {
			return false
		}
		got, err := codec.Unmarshal(data)
		if err != nil {
			return false
		}
		if got.ID != b.ID || got.CreatedNanos != b.CreatedNanos || len(got.Inputs) != len(b.Inputs) || len(got.Predictions) != len(b.Predictions) {
			return false
		}
		for i := range b.Inputs {
			// NaN != NaN; compare through bit identity by formatting.
			if got.Inputs[i] != b.Inputs[i] && b.Inputs[i] == b.Inputs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalJSONBatch([]byte("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := UnmarshalJSONBatch([]byte(`{"id":1,"count":0}`)); err == nil {
		t.Fatal("zero count accepted")
	}
	bc := BinaryCodec{}
	if _, err := bc.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short binary accepted")
	}
	good, err := bc.Marshal(sampleBatch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Unmarshal(good[:len(good)-1]); err == nil {
		t.Fatal("truncated binary accepted")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	b := sampleBatch()
	b.Inputs = make([]float32, 784)
	for i := range b.Inputs {
		b.Inputs[i] = float32(i) * 0.001
	}
	jd, err := (JSONCodec{}).Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := (BinaryCodec{}).Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd) >= len(jd) {
		t.Fatalf("binary (%d) not smaller than JSON (%d)", len(bd), len(jd))
	}
}

// canonicalBatch is the paper's default FFNN record after scoring: 784
// uniform [0,1) inputs, as the producer generates them, and 10
// softmax-normalised predictions.
func canonicalBatch() *DataBatch {
	r := rand.New(rand.NewSource(7))
	b := &DataBatch{ID: 123456, CreatedNanos: 1_760_000_000_123_456_789, Count: 1, Inputs: make([]float32, 784), Predictions: make([]float32, 10)}
	for i := range b.Inputs {
		b.Inputs[i] = r.Float32()
	}
	var sum float32
	for i := range b.Predictions {
		b.Predictions[i] = r.Float32()
		sum += b.Predictions[i]
	}
	for i := range b.Predictions {
		b.Predictions[i] /= sum
	}
	return b
}

// referenceUnmarshal is UnmarshalJSONBatch's contract spelled with
// encoding/json: json.Unmarshal plus the count check.
func referenceUnmarshal(data []byte) (*DataBatch, error) {
	var b DataBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: batch decode: %w", err)
	}
	if b.Count <= 0 {
		return nil, fmt.Errorf("core: batch %d has non-positive count %d", b.ID, b.Count)
	}
	return &b, nil
}

// sameBatch is reflect.DeepEqual (nil vs empty slices differ) with the
// floats also compared bit for bit, so -0 and 0 differ.
func sameBatch(a, b *DataBatch) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for _, p := range [][2][]float32{{a.Inputs, b.Inputs}, {a.Predictions, b.Predictions}} {
		for i := range p[0] {
			if math.Float32bits(p[0][i]) != math.Float32bits(p[1][i]) {
				return false
			}
		}
	}
	return true
}

// checkDecodeMatchesStdlib asserts UnmarshalJSONBatch agrees with the
// reference on accept/reject, on the error text, and on the batch.
func checkDecodeMatchesStdlib(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := UnmarshalJSONBatch(data)
	want, wantErr := referenceUnmarshal(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode %q: err %v, encoding/json err %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("decode %q: err %q, encoding/json err %q", data, gotErr, wantErr)
		}
		return
	}
	if !sameBatch(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
}

// batchFromBits builds a batch whose floats are raw's little-endian
// float32 bit patterns. shape>>2 picks how many trailing values are
// predictions; bits 0 and 1 choose nil or empty for an empty inputs or
// predictions slice.
func batchFromBits(raw []byte, id, created int64, count int, shape uint8) *DataBatch {
	vals := make([]float32, len(raw)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	k := int(shape>>2) % (len(vals) + 1)
	b := &DataBatch{ID: id, CreatedNanos: created, Count: count, Inputs: vals[:len(vals)-k], Predictions: vals[len(vals)-k:]}
	if len(b.Inputs) == 0 && shape&1 == 0 {
		b.Inputs = nil
	}
	if len(b.Predictions) == 0 && shape&2 == 0 {
		b.Predictions = nil
	}
	return b
}

func floatBits(vs ...float32) []byte {
	out := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// FuzzJSONBatchCodec pins the JSON codec to encoding/json: encoding any
// batch is byte-identical to json.Marshal (or fails the same way, for
// NaN and Inf), and decoding any bytes agrees with json.Unmarshal plus
// the count check on accept/reject, error text, and every float's bits.
// The seeds run in every plain `go test`; `go test -fuzz
// FuzzJSONBatchCodec ./internal/core` explores beyond them.
func FuzzJSONBatchCodec(f *testing.F) {
	const head = `{"id":1,"created_ns":2,"count":1,"inputs":`
	for _, s := range []string{
		// The encoder's own layout, including its edge shapes.
		head + `[1,2.5,-0,1e-7,3.4028235e+38]}`,
		head + `[0.1],"predictions":[0.25,0.75]}`,
		head + `null}`,
		head + `[]}`,
		head + `[1],"predictions":[]}`,
		head + `[1],"predictions":null}`,
		`{"id":-9223372036854775808,"created_ns":9223372036854775807,"count":3,"inputs":[1]}`,
		// Number-grammar traps strconv accepts and JSON does not, and
		// values strconv rejects.
		head + `[+1]}`, head + `[01]}`, head + `[.5]}`, head + `[1.]}`,
		head + `[1e]}`, head + `[-]}`, head + `[1e39]}`, head + `[-1e39]}`,
		head + `[0x1p3]}`, head + `[Infinity]}`, head + `[NaN]}`, head + `[1_0]}`,
		head + `[1E+2,1e-50,-1.5e-07,0.0]}`, head + `[1,null]}`, head + `[1,]}`,
		head + `[1 ]}`, head + `["1"]}`, head + `[1],"predictions":[1e400]}`,
		`{"id":1.0,"created_ns":2,"count":1,"inputs":[1]}`,
		`{"id":1e2,"created_ns":2,"count":1,"inputs":[1]}`,
		`{"id":9223372036854775808,"created_ns":2,"count":1,"inputs":[1]}`,
		`{"id":-0,"created_ns":-0,"count":1,"inputs":[1]}`,
		`{"id":1,"created_ns":2,"count":0,"inputs":[1]}`,
		`{"id":1,"created_ns":2,"count":-4,"inputs":[1]}`,
		`{"id":1,"created_ns":2,"count":1.5,"inputs":[1]}`,
		// Whitespace, key order, duplicates, unknown and differently
		// cased keys, escapes, trailing bytes, non-objects.
		` {"id":1,"created_ns":2,"count":1,"inputs":[1]}`,
		`{"id": 1,"created_ns":2,"count":1,"inputs":[1]}`,
		head + `[1]} `, head + `[1]}x`, head + `[1]}{}`, head + `[1]`,
		`{"count":1,"id":1,"created_ns":2,"inputs":[1]}`,
		`{"id":1,"id":2,"created_ns":2,"count":1,"inputs":[1]}`,
		head + `[1],"inputs":[2,3]}`,
		head + `[1],"extra":true}`,
		`{"ID":1,"Created_NS":2,"COUNT":1,"Inputs":[1]}`,
		`{"\u0069d":1,"created_ns":2,"count":1,"inputs":[1]}`,
		`null`, `{}`, `[]`, `{`, ``, `"x"`, `{"id":1}`,
	} {
		f.Add([]byte(s), int64(1), int64(2), 1, uint8(0))
	}
	// Float32 bit patterns for the encoder: subnormals, signed zeros,
	// both sides of the 1e-6 and 1e21 format switches, the e-0N
	// cleanup, and the extremes; NaN and Inf must fail as in json.Marshal.
	boundaries := floatBits(
		math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), 0, float32(math.Copysign(0, -1)),
		1e-6, math.Nextafter32(1e-6, 0), math.Nextafter32(1e-6, 1), -1e-6,
		1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, 2e21), -1e21,
		1e-7, 1e-9, 1e-10, 1.5e-38, math.MaxFloat32, -math.MaxFloat32,
		0.1, 1.0/3, 16777216, 123456789, -0.000123,
	)
	f.Add(boundaries, int64(math.MinInt64), int64(math.MaxInt64), math.MaxInt, uint8(5<<2))
	f.Add(boundaries, int64(-1), int64(0), 0, uint8(3))
	f.Add([]byte{}, int64(7), int64(-7), -5, uint8(0))
	f.Add([]byte{}, int64(7), int64(-7), 1, uint8(3))
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		f.Add(floatBits(1, v), int64(1), int64(2), 1, uint8(0))
		f.Add(floatBits(1, v), int64(1), int64(2), 1, uint8(1<<2))
	}

	f.Fuzz(func(t *testing.T, raw []byte, id, created int64, count int, shape uint8) {
		checkDecodeMatchesStdlib(t, raw)

		b := batchFromBits(raw, id, created, count, shape)
		got, gotErr := MarshalJSONBatch(b)
		want, wantErr := json.Marshal(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("encode %#v: err %v, json.Marshal err %v", b, gotErr, wantErr)
		}
		if gotErr != nil {
			var uve *json.UnsupportedValueError
			if !errors.As(gotErr, &uve) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("encode %#v: err %v, json.Marshal err %v", b, gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %#v:\n got %s\nwant %s", b, got, want)
		}
		if _, ok := decodeJSONBatch(got); !ok {
			t.Fatalf("decoder's scan path rejected encoder output %s", got)
		}
		checkDecodeMatchesStdlib(t, got)
	})
}

// TestJSONCodecAllocs pins the codec's allocation budget on the
// canonical record: the encoder sizes its buffer once, and the decoder
// allocates the batch and each of its two slices once.
func TestJSONCodecAllocs(t *testing.T) {
	b := canonicalBatch()
	data, err := MarshalJSONBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(20, func() {
		if _, err := MarshalJSONBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(20, func() {
		if _, err := UnmarshalJSONBatch(data); err != nil {
			t.Fatal(err)
		}
	})
	if enc != 1 || dec > 3 {
		t.Fatalf("allocs/op: encode %.0f (want 1), decode %.0f (want <= 3)", enc, dec)
	}
}

// BenchmarkJSONCodecRoundTrip is the pipeline-codec speedup contract
// (docs/PERFORMANCE.md "Pipeline codec", scripts/bench.sh): one encode
// and one decode of the canonical record through encoding/json's
// reflection ("stdlib") and through the pipeline's JSON codec
// ("codec"). The ns/op ratio is booked as json_codec_speedup
// (contract: >= 1.8x) and the codec's allocs/op as json_codec_allocs_op.
func BenchmarkJSONCodecRoundTrip(b *testing.B) {
	batch := canonicalBatch()
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(batch)
			if err != nil {
				b.Fatal(err)
			}
			var out DataBatch
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := MarshalJSONBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := UnmarshalJSONBatch(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
