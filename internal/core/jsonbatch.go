package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The pipeline's JSON codec is schema-specific: DataBatch has five fixed
// fields, so the encoder writes them in one append pass and the decoder
// scans exactly that layout, with no reflection. Both stay byte- and
// value-identical to encoding/json (FuzzJSONBatchCodec pins it): the
// encoder copies encoding/json's field order, omitempty and float32
// formatting rules, and any input the decoder's layout does not cover
// goes to json.Unmarshal, so accepted inputs, values and errors are
// exactly those of the reflection path.

const (
	// jsonBatchHeaderMax bounds the bytes around the two arrays: the
	// field keys, three int64s at 20 characters each, the brackets.
	jsonBatchHeaderMax = 128
	// jsonFloatEstimate sizes the encoder's single allocation per value,
	// comma included. The shortest float32 form of a uniform [0, 1)
	// value — the producer's inputs, a softmax's predictions — averages
	// 9.6 bytes and is at most 11 from 0.1 up, so the few longer ones
	// fit in the slack. Arrays of longer values (large magnitudes,
	// negatives) only cost append growth.
	jsonFloatEstimate = 12
)

// appendJSONBatch appends b's encoding/json form to dst.
func appendJSONBatch(dst []byte, b *DataBatch) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, b.ID, 10)
	dst = append(dst, `,"created_ns":`...)
	dst = strconv.AppendInt(dst, b.CreatedNanos, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"inputs":`...)
	var err error
	if dst, err = appendJSONFloats(dst, b.Inputs); err != nil {
		return nil, err
	}
	if len(b.Predictions) > 0 {
		dst = append(dst, `,"predictions":`...)
		if dst, err = appendJSONFloats(dst, b.Predictions); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSONFloats appends vs as a JSON array; a nil slice is null.
func appendJSONFloats(dst []byte, vs []float32) ([]byte, error) {
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		f := float64(v)
		if math.IsInf(f, 0) || math.IsNaN(f) {
			// Let encoding/json build its own *UnsupportedValueError.
			_, err := json.Marshal(v)
			return nil, err
		}
		// encoding/json's float32 rule: shortest 'f' form, switching to
		// 'e' outside [1e-6, 1e21) and dropping the exponent's leading 0.
		format := byte('f')
		if a := float32(math.Abs(f)); a != 0 && (a < 1e-6 || a >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 32)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return append(dst, ']'), nil
}

// decodeJSONBatch decodes the exact layout appendJSONBatch writes: no
// whitespace, the keys in encoder order, numbers in JSON's grammar.
// ok is false for any other input, valid JSON or not; the caller then
// defers to json.Unmarshal. Count is not checked here.
func decodeJSONBatch(data []byte) (b *DataBatch, ok bool) {
	s := batchScanner{data: data}
	if !s.lit(`{"id":`) {
		return nil, false
	}
	id, ok := s.int(64)
	if !ok || !s.lit(`,"created_ns":`) {
		return nil, false
	}
	created, ok := s.int(64)
	if !ok || !s.lit(`,"count":`) {
		return nil, false
	}
	count, ok := s.int(strconv.IntSize)
	if !ok || !s.lit(`,"inputs":`) {
		return nil, false
	}
	inputs, ok := s.floats()
	if !ok {
		return nil, false
	}
	var preds []float32
	if s.lit(`,"predictions":`) {
		if preds, ok = s.floats(); !ok {
			return nil, false
		}
	}
	if !s.lit("}") || s.pos != len(data) {
		return nil, false
	}
	return &DataBatch{ID: id, CreatedNanos: created, Count: int(count), Inputs: inputs, Predictions: preds}, true
}

// batchScanner walks decodeJSONBatch's input.
type batchScanner struct {
	data []byte
	pos  int
}

// lit consumes l if the input continues with it.
func (s *batchScanner) lit(l string) bool {
	if len(s.data)-s.pos < len(l) || string(s.data[s.pos:s.pos+len(l)]) != l {
		return false
	}
	s.pos += len(l)
	return true
}

// number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter
// than strconv (no "+1", "01", ".5", "1.", hex, "Inf" or underscores).
func (s *batchScanner) number() (tok []byte, ok bool) {
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			return nil, false
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return nil, false
		}
		i = skipDigits(d, i)
	}
	tok, s.pos = d[s.pos:i], i
	return tok, true
}

// int consumes an integer token that fits in bits, as encoding/json
// stores into an integer field: ParseInt rejects fractions, exponents
// and overflow.
func (s *batchScanner) int(bits int) (int64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	return v, err == nil
}

// floats consumes null or an array of numbers, allocating the slice
// once: its length is the comma count up to the first ']', which the
// element scan then confirms. An empty array decodes to an empty
// non-nil slice and null to nil, as in encoding/json.
func (s *batchScanner) floats() ([]float32, bool) {
	if s.lit("null") {
		return nil, true
	}
	if !s.lit("[") {
		return nil, false
	}
	if s.lit("]") {
		return []float32{}, true
	}
	end := bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float32, bytes.Count(s.data[s.pos:s.pos+end], comma)+1)
	for i := range out {
		if i > 0 && !s.lit(",") {
			return nil, false
		}
		tok, ok := s.number()
		if !ok {
			return nil, false
		}
		// encoding/json's float32 store: ParseFloat at 32 bits, where a
		// range error rejects the input.
		f, err := strconv.ParseFloat(string(tok), 32)
		if err != nil {
			return nil, false
		}
		out[i] = float32(f)
	}
	return out, s.lit("]")
}

var comma = []byte{','}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}
