package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
)

// Memo returns the value for key, computing it with fn at most once per
// engine while it succeeds. It is how runners share entire result sets —
// e.g. Figures 6 and 7 consume the same register sweep, so the second
// figure's sweep is a single map lookup. Concurrent callers of the same
// key block until the first computation finishes and share its result.
//
// Memo runs on the same single-flight core as the base stage, with its
// own retention policy (retainDeterministic): deterministic failures
// are retained and shared (re-running a whole result set to hit the
// identical error would waste a corpus-sized computation per waiter), while
// caller-dependent context-cancellation failures are dropped — a waiter
// that observes one retries while its own context is live, and later
// callers recompute.
func (e *Engine) Memo(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	return e.memos.do(ctx, key, fn)
}

// retainDeterministic is Memo's error-retention policy: deterministic
// failures (unschedulable or non-converging problems) are cached like
// results, caller-dependent context errors are not.
func retainDeterministic(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// CorpusKey derives a stable Memo key for a computation over (corpus,
// machine): the prefix namespaces the computation, and the corpus
// contributes the canonical digest of every graph, so two corpora with
// identical content share keys regardless of slice identity.
func (e *Engine) CorpusKey(prefix string, corpus []*ddg.Graph, m *machine.Config) string {
	h := sha256.New()
	h.Write([]byte(prefix))
	h.Write([]byte{0})
	h.Write([]byte(m.Name()))
	h.Write([]byte{0})
	for _, g := range corpus {
		d := e.cache.digestOf(g)
		h.Write(d[:])
	}
	return prefix + "/" + m.Name() + "/" + hex.EncodeToString(h.Sum(nil)[:16])
}
