package dist

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Backoff produces jittered exponential retry delays. It is the retry
// policy shared by the sweep coordinator, the island exchanger and the
// gateway's lease agents: exponential growth from Base capped at Max, plus
// up to 50% random jitter so synchronized clients de-correlate their retry
// storms. Safe for concurrent use; the zero value is unusable — create
// with NewBackoff.
type Backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a backoff policy; non-positive arguments select the
// coordinator defaults (100ms base, 5s cap).
func NewBackoff(base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return &Backoff{
		base: base,
		max:  max,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Delay computes the pre-retry delay for the given attempt (1-based):
// base<<(attempt-1) capped at the maximum, plus up to 50% jitter.
func (b *Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := b.base << (attempt - 1)
	if d > b.max || d <= 0 {
		d = b.max
	}
	b.mu.Lock()
	jitter := time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	b.mu.Unlock()
	return d + jitter
}

// Sleep waits out the delay for attempt, returning false if ctx ends
// first. A nil ctx sleeps unconditionally.
func (b *Backoff) Sleep(ctx context.Context, attempt int) bool {
	return sleepCtx(ctx, b.Delay(attempt))
}

// NormalizeURL accepts "host:port" or a full URL and returns a base URL
// without a trailing slash; empty or whitespace input returns "".
func NormalizeURL(raw string) string {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return ""
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	return raw
}
