package plandclient

import (
	"bytes"
	"encoding/json"

	"repro/internal/core"
	"repro/pkg/assign"
)

// A reply that embeds a mapping schema is mostly the schema: thousands of
// IDs, against a few hundred bytes of everything else. encoding/json would
// scan those IDs twice before the schema's own parser saw them (once to find
// where the reply ends, once to find where the schema ends), so decodeReply
// hands the schema to that parser directly and encoding/json decodes only
// the rest.

// schemaReply is a reply type with a schema field.
type schemaReply interface {
	schemaField() **assign.MappingSchema
}

func (r *PlanResult) schemaField() **assign.MappingSchema    { return &r.Schema }
func (r *ExecuteResult) schemaField() **assign.MappingSchema { return &r.Schema }
func (r *Session) schemaField() **assign.MappingSchema       { return &r.Schema }

// decodeReply decodes the reply body into out, which is a new value: the
// value and the error are those of json.NewDecoder(…).Decode(out) over body,
// which is what decodes every reply the fast path below declines. Like that
// decoder it reads the first JSON value and ignores what follows it.
func decodeReply(body []byte, out any) error {
	if r, ok := out.(schemaReply); ok {
		if envelope, ms, ok := splitReply(body); ok {
			// The envelope fails to decode only where the body does; then the
			// decoder below sets every field it set, from the same bytes.
			if json.Unmarshal(envelope, out) == nil {
				*r.schemaField() = ms
				return nil
			}
		}
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// splitReply parses the schema of the reply object at the start of body with
// core.ParseSchemaPrefix. It returns the schema and the object's bytes with
// the schema's value replaced by null, for encoding/json to decode the other
// fields from. It declines unless the object has exactly one top-level key
// encoding/json would decode into the schema field — "schema" itself; a key
// in another case, or with an escape or a non-ASCII byte, is declined — and
// core.ParseSchemaPrefix reads its value.
//
// The other values are skipped by their delimiters, not checked: that is
// right for well-formed JSON, and the envelope of a malformed body is itself
// malformed, because it differs from the body only in one well-formed value.
func splitReply(body []byte) (envelope []byte, ms *assign.MappingSchema, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, nil, false
	}
	start, valueAt, valueEnd := i, -1, -1
	for i = skipSpace(body, i+1); ; {
		keyEnd, isKey := skipString(body, i)
		if !isKey {
			return nil, nil, false
		}
		key := body[i+1 : keyEnd-1]
		if i = skipSpace(body, keyEnd); i == len(body) || body[i] != ':' {
			return nil, nil, false
		}
		i = skipSpace(body, i+1)
		switch {
		case string(key) == "schema":
			var n int
			if valueAt >= 0 {
				return nil, nil, false
			}
			if ms, n, ok = core.ParseSchemaPrefix(body[i:]); !ok {
				return nil, nil, false
			}
			valueAt, valueEnd, i = i, i+n, i+n
		case mayMatchSchema(key):
			return nil, nil, false
		default:
			if i, ok = skipValue(body, i); !ok {
				return nil, nil, false
			}
		}
		if i = skipSpace(body, i); i == len(body) {
			return nil, nil, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			if valueAt < 0 {
				return nil, nil, false
			}
			end := i + 1
			envelope = make([]byte, 0, end-start-(valueEnd-valueAt)+len("null"))
			envelope = append(envelope, body[start:valueAt]...)
			envelope = append(envelope, "null"...)
			envelope = append(envelope, body[valueEnd:end]...)
			return envelope, ms, true
		default:
			return nil, nil, false
		}
	}
}

// mayMatchSchema reports whether encoding/json could match the raw object key
// to a field named "schema": any case of those letters, or any key with an
// escape or a non-ASCII byte (it folds some of those to ASCII letters).
func mayMatchSchema(key []byte) bool {
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			return true
		}
	}
	return bytes.EqualFold(key, []byte("schema"))
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space, or len(data).
func skipSpace(data []byte, i int) int {
	for ; i < len(data); i++ {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return i
		}
	}
	return i
}

// skipString returns the index just past the string that starts at i.
func skipString(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '"' {
		return 0, false
	}
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return 0, false
}

// skipValue returns the index just past the value that starts at i: a string,
// an object or array (to its matching close, counting brackets outside
// strings), or a literal or number (to the next delimiter).
func skipValue(data []byte, i int) (int, bool) {
	if i >= len(data) {
		return 0, false
	}
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for ; i < len(data); i++ {
			switch data[i] {
			case '"':
				end, ok := skipString(data, i)
				if !ok {
					return 0, false
				}
				i = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
		}
		return 0, false
	}
	j := i
	for ; j < len(data); j++ {
		switch data[j] {
		case ',', '}', ']', ' ', '\t', '\r', '\n':
			return j, j > i
		}
	}
	return j, j > i
}
