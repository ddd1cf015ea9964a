package dist

import "time"

// FastWaitSlice is the long-poll slice of a coordinator built by NewFast.
const FastWaitSlice = 50 * time.Millisecond

// NewFast is New with the policy durations shortened so whole kill,
// restart and retry cycles fit in a unit test.
func NewFast(url, key string) (*Coordinator, error) {
	c, err := New(url, key)
	if err == nil {
		c.cellTimeout = 30 * time.Second
		c.waitSlice = FastWaitSlice
		c.backoff = NewBackoff(time.Millisecond, 5*time.Millisecond)
	}
	return c, err
}
