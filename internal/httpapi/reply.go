package httpapi

import (
	"bytes"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/socialgraph"
)

// writeRanking sends the /v1/find reply of a ranking cut to top: the
// bytes writeFind sends for its named experts, written from the
// ranking's memoised score text (core.Ranking.ScoreJSON) and the
// handles names quoted once, so a result-cache hit formats no float
// and builds no expert list. A score JSON cannot carry, or an expert
// names does not hold (nil names holds none), takes writeFind's path
// with the experts named (System.ExpertsOf), and a bad score is its
// JSON 500.
func writeRanking(w http.ResponseWriter, need string, r *core.Ranking, top int, names *nameTable, named func([]core.ExpertScore) []expertfind.Expert) {
	scores := r.Scores
	if top > 0 && len(scores) > top {
		scores = scores[:top]
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	b, ok := appendRanking(buf.AvailableBuffer(), need, r, len(scores), names)
	if !ok {
		writeFind(w, findResponse{Need: need, Experts: named(scores)})
		return
	}
	sendReply(w, buf, b)
}

// appendRanking appends the /v1/find reply of r's first n experts, as
// appendFind appends it for the same experts named, and reports false
// when a score is NaN or ±Inf or names lacks an expert.
func appendRanking(b []byte, need string, r *core.Ranking, n int, names *nameTable) ([]byte, bool) {
	text, ok := r.ScoreJSON()
	if !ok || names == nil {
		return b, false
	}
	b = append(b, `{"need":`...)
	b = appendJSONString(b, need)
	b = append(b, `,"experts":[`...)
	for i, e := range r.Scores[:n] {
		name, ok := names.quoted(e.User)
		if !ok {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Name":`...)
		b = append(b, name...)
		b = append(b, `,"Score":`...)
		size := int(text[0])
		b = append(b, text[1:1+size]...)
		text = text[1+size:]
		b = append(b, `,"SupportingResources":`...)
		b = strconv.AppendInt(b, int64(e.Resources), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), true
}

// nameTable is the JSON text of each candidate's handle, quoted once
// for the System whose pool it was built from, by ascending id.
type nameTable struct {
	sys    *expertfind.System
	ids    []int32
	handle []string // handle[i] is candidate ids[i]'s handle, quoted
}

// newNameTable quotes the handles of pool, listed in ascending id
// order as core.Finder.Pool lists it.
func newNameTable(sys *expertfind.System, pool []core.Candidate) *nameTable {
	t := &nameTable{sys: sys, ids: make([]int32, len(pool)), handle: make([]string, len(pool))}
	for i, c := range pool {
		t.ids[i] = c.ID
		t.handle[i] = string(appendJSONString(nil, c.Name))
	}
	return t
}

// quoted returns candidate u's quoted handle.
func (t *nameTable) quoted(u socialgraph.UserID) (string, bool) {
	i, ok := slices.BinarySearch(t.ids, int32(u))
	if !ok {
		return "", false
	}
	return t.handle[i], true
}

// writeFind sends a /v1/find reply: the bytes json.Encoder writes for
// resp, appended into a pooled buffer without reflection. A score JSON
// cannot carry (NaN, ±Inf) goes through writeJSON, which answers the
// JSON 500.
func writeFind(w http.ResponseWriter, resp findResponse) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	b, ok := appendFind(buf.AvailableBuffer(), resp)
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	sendReply(w, buf, b)
}

// sendReply sends b, appended to buf's available buffer, as a JSON 200.
func sendReply(w http.ResponseWriter, buf *bytes.Buffer, b []byte) {
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
			if b, ok = core.AppendJSONFloat(b, e.Score); !ok {
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
