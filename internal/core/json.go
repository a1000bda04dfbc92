package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// The JSON form of a mapping schema is the hand-off format between the
// planning side of this library and an external execution engine (e.g. a
// driver that configures a real Hadoop/Spark job): it lists, for every
// reducer, the IDs of the inputs that must be routed to it. MarshalJSON and
// UnmarshalJSON round-trip MappingSchema through that format. A served schema
// is thousands of IDs, so both sides walk them once and by hand; encoding/json
// over schemaJSON below defines the format and stays its reference.
//
// Contract:
//
//   - MarshalJSON writes byte for byte what json.Marshal of schemaJSON writes:
//     the keys in declaration order, "algorithm" and every ID list omitted
//     when empty, "reducers" always an array, no white space. Problem and
//     algorithm names made only of printable ASCII other than '"', '\\', '<',
//     '>' and '&' are copied as they are; any other name is escaped by
//     json.Marshal itself.
//   - UnmarshalJSON reads with parseWire exactly that language, plus
//     insignificant white space and the keys of an object in any order:
//     problem "A2A" or "X2Y", integers of up to 18 digits, strings of
//     unescaped ASCII. Everything else — an unknown or differently-cased key,
//     a duplicate key, an escape or a non-ASCII byte in a string, null, a
//     fraction, exponent or longer number, another problem name, bytes after
//     the value — goes to the reflective decoder with the input untouched, so
//     what is accepted, what a duplicate or a null means and the text of every
//     error are encoding/json's. The bytes alone make the choice.
//   - ParseSchemaPrefix is the prefix form, for a schema embedded in a larger
//     document (a pland reply): it reads the same language from the start of
//     its input and reports where the schema ends, without looking at what
//     follows. The fallback rule is the caller's to keep: when the prefix
//     form declines, the whole enclosing document goes to the reflective
//     decoder — not the schema alone — so that its decoder, not this file,
//     judges the schema's bytes, a duplicate key and malformed input.
//   - The ID lists parseWire returns are consecutive sections of one backing
//     array, each sliced with its capacity capped at its length: appending to
//     a list reallocates that list and cannot write into its neighbour.

// schemaJSON is the wire representation of MappingSchema.
type schemaJSON struct {
	Problem   string        `json:"problem"`
	Capacity  Size          `json:"capacity"`
	Algorithm string        `json:"algorithm,omitempty"`
	Reducers  []reducerJSON `json:"reducers"`
}

type reducerJSON struct {
	Inputs  []int `json:"inputs,omitempty"`
	XInputs []int `json:"x_inputs,omitempty"`
	YInputs []int `json:"y_inputs,omitempty"`
	Load    Size  `json:"load"`
}

// MarshalJSON implements json.Marshaler.
func (ms *MappingSchema) MarshalJSON() ([]byte, error) {
	// Lists are ascending, so a list's last ID is its widest: with the widest
	// of those and the capacity's width (a load does not exceed it) the buffer
	// below is large enough for any schema a solver builds. One that is not
	// so shaped only makes append grow it.
	ids, maxID := 0, 0
	for i := range ms.Reducers {
		r := &ms.Reducers[i]
		for _, list := range [...][]int{r.Inputs, r.XInputs, r.YInputs} {
			if n := len(list); n > 0 {
				ids += n
				maxID = max(maxID, list[n-1])
			}
		}
	}
	const header, perReducer = 96, 48 // the fixed keys and punctuation of each
	size := header + len(ms.Algorithm) + ids*(decimalWidth(int64(maxID))+1) +
		len(ms.Reducers)*(perReducer+decimalWidth(int64(ms.Capacity)))
	buf := make([]byte, 0, size)

	var err error
	buf = append(buf, `{"problem":`...)
	if buf, err = appendJSONString(buf, ms.Problem.String()); err != nil {
		return nil, err
	}
	buf = append(buf, `,"capacity":`...)
	buf = strconv.AppendInt(buf, int64(ms.Capacity), 10)
	if ms.Algorithm != "" {
		buf = append(buf, `,"algorithm":`...)
		if buf, err = appendJSONString(buf, ms.Algorithm); err != nil {
			return nil, err
		}
	}
	buf = append(buf, `,"reducers":[`...)
	for i := range ms.Reducers {
		r := &ms.Reducers[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		buf = appendIDList(buf, `"inputs":[`, r.Inputs)
		buf = appendIDList(buf, `"x_inputs":[`, r.XInputs)
		buf = appendIDList(buf, `"y_inputs":[`, r.YInputs)
		buf = append(buf, `"load":`...)
		buf = strconv.AppendInt(buf, int64(r.Load), 10)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...), nil
}

// decimalWidth is the number of bytes strconv.AppendInt writes for v.
func decimalWidth(v int64) int {
	w := 1
	if v < 0 {
		w++ // the sign; the digit count below is the same for -v
	}
	for v /= 10; v != 0; v /= 10 {
		w++
	}
	return w
}

// appendIDList writes a non-empty list as `"key":[…],` — the comma because
// "load" always follows — and nothing for an empty one.
func appendIDList(buf []byte, open string, ids []int) []byte {
	if len(ids) == 0 {
		return buf
	}
	buf = append(buf, open...)
	for _, id := range ids {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	buf[len(buf)-1] = ']'
	return append(buf, ',')
}

// appendJSONString appends s as a JSON string. Names that need no escaping
// under encoding/json's default (HTML-safe) rules are copied; the rest are
// left to json.Marshal so the escapes are its own.
func appendJSONString(buf []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, err := json.Marshal(s)
			return append(buf, quoted...), err
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (ms *MappingSchema) UnmarshalJSON(data []byte) error {
	if ms.parseWire(data) {
		return nil
	}
	return ms.unmarshalReflect(data)
}

// unmarshalReflect decodes through encoding/json and schemaJSON. It defines
// what UnmarshalJSON accepts and returns; parseWire only gets there sooner on
// the input it recognises.
func (ms *MappingSchema) unmarshalReflect(data []byte) error {
	var in schemaJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decoding mapping schema: %w", err)
	}
	switch in.Problem {
	case "A2A":
		ms.Problem = ProblemA2A
	case "X2Y":
		ms.Problem = ProblemX2Y
	default:
		return fmt.Errorf("core: unknown problem %q in mapping schema JSON", in.Problem)
	}
	ms.Capacity = in.Capacity
	ms.Algorithm = in.Algorithm
	ms.Reducers = make([]Reducer, len(in.Reducers))
	for i, r := range in.Reducers {
		ms.Reducers[i] = Reducer{Inputs: r.Inputs, XInputs: r.XInputs, YInputs: r.YInputs, Load: r.Load}
	}
	return nil
}

// parseWire decodes data in one pass if it is in the language described at
// the top of this file, and reports whether it was. On false ms is untouched
// and the caller decodes data again reflectively, which is also what turns
// malformed input into an error.
func (ms *MappingSchema) parseWire(data []byte) bool {
	out, end, ok := parseWirePrefix(data)
	if !ok {
		return false
	}
	s := wireScanner{data: data, pos: end}
	if s.next() != 0 || s.pos != len(data) {
		return false
	}
	*ms = out
	return true
}

// ParseSchemaPrefix is parseWire for a schema embedded in a larger document:
// it reads the schema at the start of data, after any white space, and
// returns it with the offset just past its closing brace. The bytes after
// that are not looked at. It declines (ok false) exactly where parseWire
// would decline the schema's own bytes, and then the caller must decode the
// whole document reflectively, as the top of this file describes.
func ParseSchemaPrefix(data []byte) (ms *MappingSchema, end int, ok bool) {
	out, end, ok := parseWirePrefix(data)
	if !ok {
		return nil, 0, false
	}
	return &out, end, true
}

// parseWirePrefix reads the schema object at the start of data and returns
// it with the offset just past the object.
func parseWirePrefix(data []byte) (out MappingSchema, end int, ok bool) {
	s := wireScanner{data: data}
	const (
		seenProblem = 1 << iota
		seenCapacity
		seenAlgorithm
		seenReducers
	)
	seen := 0
	s.next()
	more, ok := s.begin('{', '}')
	for ; ok && more; more, ok = s.more('}') {
		var bit int
		switch string(s.key()) {
		case "problem":
			bit = seenProblem
			switch name, _ := s.str(); string(name) {
			case "A2A":
				out.Problem = ProblemA2A
			case "X2Y":
				out.Problem = ProblemX2Y
			default:
				return out, 0, false
			}
		case "capacity":
			bit = seenCapacity
			v, isInt := s.integer()
			if !isInt {
				return out, 0, false
			}
			out.Capacity = Size(v)
		case "algorithm":
			bit = seenAlgorithm
			name, isStr := s.str()
			if !isStr {
				return out, 0, false
			}
			out.Algorithm = string(name)
		case "reducers":
			bit = seenReducers
			if out.Reducers, ok = s.reducers(); !ok {
				return out, 0, false
			}
		default:
			return out, 0, false
		}
		if seen&bit != 0 {
			return out, 0, false
		}
		seen |= bit
	}
	if !ok || seen&seenProblem == 0 {
		return out, 0, false
	}
	if out.Reducers == nil {
		out.Reducers = []Reducer{} // as the reflective decoder leaves it
	}
	return out, s.pos, true
}

// wireScanner is parseWire's cursor. Its methods consume what they recognise
// and report !ok, with the position unspecified, on anything else.
type wireScanner struct {
	data []byte
	pos  int
	// ids backs every ID list of the schema being read.
	ids []int
}

// next skips white space and returns the byte at the cursor without consuming
// it, or 0 — which no caller expects — at the end of the input.
func (s *wireScanner) next() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// begin enters the array or object at the cursor, delimited by open and end,
// and reports whether a first element follows. If the container is empty it
// is consumed whole.
func (s *wireScanner) begin(open, end byte) (more, ok bool) {
	if s.pos >= len(s.data) || s.data[s.pos] != open {
		return false, false
	}
	s.pos++
	if s.next() == end {
		s.pos++
		return false, true
	}
	return true, true
}

// more follows an element of a container: it consumes either a comma, and
// reports that another element follows, or end.
func (s *wireScanner) more(end byte) (more, ok bool) {
	switch s.next() {
	case ',':
		s.pos++
		s.next()
		return true, true
	case end:
		s.pos++
		return false, true
	}
	return false, false
}

// key reads an object key and its colon, leaving the cursor on the value; it
// returns nil, which matches no key of the format, for anything else. (It
// returns bytes because a string converted in the caller's switch costs no
// allocation, and one returned from here would.)
func (s *wireScanner) key() []byte {
	key, ok := s.str()
	if !ok || s.next() != ':' {
		return nil
	}
	s.pos++
	s.next()
	return key
}

// str reads a string of unescaped ASCII at the cursor and returns its
// contents, still in data.
func (s *wireScanner) str() ([]byte, bool) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, false
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// integer reads a JSON integer at the cursor. It declines 19 digits and more
// rather than detect overflow, and a leading zero because JSON has none; a
// fraction or exponent is left at the cursor, where no caller expects it.
func (s *wireScanner) integer() (int64, bool) {
	d, i := s.data, s.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	first := i
	var v int64
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		v = v*10 + int64(d[i]-'0')
	}
	if n := i - first; n == 0 || n > 18 || (n > 1 && d[first] == '0') {
		return 0, false
	}
	s.pos = i
	if neg {
		v = -v
	}
	return v, true
}

// reducers reads the "reducers" array. Both allocations are made here, once
// the header is known to parse, and are sized from counts of the punctuation
// every reducer and every ID needs, so neither grows. (The counts run to the
// end of the input, so what follows a prefix only makes them larger.)
func (s *wireScanner) reducers() ([]Reducer, bool) {
	more, ok := s.begin('[', ']')
	if !ok {
		return nil, false
	}
	rest := s.data[s.pos:]
	commas := bytes.Count(rest, []byte{','})
	// An ID is followed by ',' or ']'; a reducer is opened by '{' and all but
	// the first are preceded by ','.
	s.ids = make([]int, 0, commas+bytes.Count(rest, []byte{']'}))
	reds := make([]Reducer, 0, min(commas+1, bytes.Count(rest, []byte{'{'})))
	for ; ok && more; more, ok = s.more(']') {
		red, isReducer := s.reducer()
		if !isReducer {
			return nil, false
		}
		reds = append(reds, red)
	}
	return reds, ok
}

func (s *wireScanner) reducer() (red Reducer, ok bool) {
	loadSeen := false
	more, ok := s.begin('{', '}')
	for ; ok && more; more, ok = s.more('}') {
		var list *[]int
		switch string(s.key()) {
		case "inputs":
			list = &red.Inputs
		case "x_inputs":
			list = &red.XInputs
		case "y_inputs":
			list = &red.YInputs
		case "load":
			v, isInt := s.integer()
			if !isInt || loadSeen {
				return red, false
			}
			red.Load, loadSeen = Size(v), true
			continue
		default:
			return red, false
		}
		if *list != nil {
			return red, false // a duplicate key
		}
		if *list, ok = s.idList(); !ok {
			return red, false
		}
	}
	return red, ok
}

// idList reads an array of integers into the next section of s.ids. The
// result is never nil: an empty array decodes to an empty list, as it does
// reflectively.
func (s *wireScanner) idList() ([]int, bool) {
	start := len(s.ids)
	more, ok := s.begin('[', ']')
	for ; ok && more; more, ok = s.more(']') {
		v, isInt := s.integer()
		if !isInt || int64(int(v)) != v {
			return nil, false
		}
		s.ids = append(s.ids, int(v))
	}
	return s.ids[start:len(s.ids):len(s.ids)], ok
}
