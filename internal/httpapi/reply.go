package httpapi

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// writeFind sends a /v1/find reply: the bytes json.Encoder writes for
// resp, appended into a pooled buffer without reflection, since the
// reply is most of what a result-cache hit costs. A score JSON cannot
// carry (NaN, ±Inf) goes through writeJSON, which answers the JSON 500.
func writeFind(w http.ResponseWriter, resp findResponse) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	b, ok := appendFind(buf.AvailableBuffer(), resp)
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	buf.Write(b) // keeps the capacity when the reply outgrew the buffer
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// appendFind appends resp as json.Encoder encodes a findResponse, the
// trailing newline included, and reports false when a score is NaN or
// ±Inf. The field names are findResponse's, Expert's and
// degradedInfo's JSON names; FuzzFindReply holds the two encodings equal.
func appendFind(b []byte, resp findResponse) ([]byte, bool) {
	b = append(b, `{"need":`...)
	b = appendJSONString(b, resp.Need)
	b = append(b, `,"experts":`...)
	if resp.Experts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range resp.Experts {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Name":`...)
			b = appendJSONString(b, e.Name)
			b = append(b, `,"Score":`...)
			var ok bool
			if b, ok = appendJSONFloat(b, e.Score); !ok {
				return b, false
			}
			b = append(b, `,"SupportingResources":`...)
			b = strconv.AppendInt(b, int64(e.SupportingResources), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if d := resp.Degraded; d != nil {
		b = append(b, `,"degraded":{"shards_down":`...)
		b = strconv.AppendInt(b, int64(d.ShardsDown), 10)
		b = append(b, `,"shards_total":`...)
		b = strconv.AppendInt(b, int64(d.ShardsTotal), 10)
		b = append(b, '}')
	}
	return append(b, "}\n"...), true
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 or from 1e21 in magnitude with
// a one-digit exponent unpadded. It reports false for NaN and ±Inf.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, true
}

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: '<', '>' and '&', control bytes, U+2028 and
// U+2029 are escaped, and each byte of invalid UTF-8 becomes the escape
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
