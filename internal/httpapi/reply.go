package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/socialgraph"
)

// writeFind sends the /v1/find reply of a ranking cut to top, its
// experts named from pool: the bytes json.Encoder writes for the
// findResponse of the named experts, appended from the ranking's
// memoised score text (core.Ranking.ScoreJSON) and the pool's quoted
// handles, so a result-cache hit formats no float and builds no expert
// list. degraded is set by a coordinator that answered from part of its
// topology. A ranked id the pool lacks is a JSON 500 that names it; a
// score JSON cannot carry (NaN, ±Inf) sends the named experts through
// writeJSON, which answers the JSON 500.
func writeFind(w http.ResponseWriter, need string, r *core.Ranking, top int, pool *core.Pool, degraded *degradedInfo) {
	scores := r.Scores
	if top > 0 && len(scores) > top {
		scores = scores[:top]
	}
	text, finite := r.ScoreJSON()
	if !finite {
		experts := make([]expertfind.Expert, len(scores))
		for i, e := range scores {
			name, ok := pool.Name(e.User)
			if !ok {
				writeNotInPool(w, e.User)
				return
			}
			experts[i] = expertfind.Expert{Name: name, Score: e.Score, SupportingResources: e.Resources}
		}
		writeJSON(w, http.StatusOK, findResponse{Need: need, Experts: experts, Degraded: degraded})
		return
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	b := append(buf.AvailableBuffer(), `{"need":`...)
	b = core.AppendJSONString(b, need)
	b = append(b, `,"experts":[`...)
	for i, e := range scores {
		name, ok := pool.Quoted(e.User)
		if !ok {
			writeNotInPool(w, e.User)
			return
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
	b = append(b, ']')
	if d := degraded; d != nil {
		b = append(b, `,"degraded":{"shards_down":`...)
		b = strconv.AppendInt(b, int64(d.ShardsDown), 10)
		b = append(b, `,"shards_total":`...)
		b = strconv.AppendInt(b, int64(d.ShardsTotal), 10)
		b = append(b, '}')
	}
	b = append(b, "}\n"...)
	buf.Write(b) // keeps the capacity when the reply outgrew the buffer
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// writeNotInPool answers the JSON 500 of a ranked candidate the naming
// pool lacks.
func writeNotInPool(w http.ResponseWriter, u socialgraph.UserID) {
	writeJSON(w, http.StatusInternalServerError, map[string]string{
		"error": fmt.Sprintf("candidate %d is not in the candidate pool", u)})
}
