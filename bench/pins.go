package main

// pinSeed is the request seed whose rankings are pinned.
const pinSeed = 11

// pinned is each workload's stream hash for pinSeed under the full
// sizing: every ranking of one pass (names, score bits, support
// counts, in order) chained with the end-of-pass store state. Rankings
// are the repository's fixed point, so a run with seed 11 fails when
// its hash differs; other seeds are held to cross-pass identity only.
// To re-pin after a deliberate ranking change, run each workload with
// --seed 11 and copy the "stream hash" it logs.
var pinned = map[string]string{
	"mem_find":    "916e67c21c2dc696",
	"seg_topk":    "524b925d376137a3",
	"seg_churn":   "4fd1c4674c34e015",
	"http_cached": "4171c04359beee3c",
}
