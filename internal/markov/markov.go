// Package markov implements absorbing discrete-state Markov chains with
// per-state residence times, the analysis machinery behind the task-level
// reliability models of CL(R)Early (Section IV of the paper).
//
// A chain is a set of named states, a subset of which are absorbing, plus
// transition probabilities between states. Each transient state carries a
// residence time: the time spent in the state per visit. Two questions are
// answered analytically, via the fundamental matrix N = (I − Q)⁻¹ of the
// chain (Kemeny & Snell):
//
//   - the expected accumulated residence time until absorption, which the
//     reliability model reads as the task's average execution time, and
//   - the probability of being absorbed in each absorbing state, which the
//     functional-reliability model reads as P(noError) and P(Error).
//
// Chain construction and analysis sit on the hot path of every task-metric
// evaluation, so the builder is allocation-conscious: edges live in one
// per-chain arena (a linked list threaded through a single slice), state
// names are formatted lazily (only error paths and dumps read them), and
// analysis draws its working set from a package-level scratch pool. Reset
// lets callers reuse a chain's storage across builds, and AnalyzePair
// writes into caller-owned Results, so a caller that keeps both analyzes
// without allocating.
//
// The linear systems are solved by a sparse LU (see system) whose results
// are bit-identical to dense Gaussian elimination with partial pivoting: a
// reliability chain's (I − Q)ᵀ has a few nonzeros per column, and the
// factorization visits only those.
package markov

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// stateName is a lazily formatted state name: a fixed prefix plus an
// optional numeric suffix ("ExecICI" + 2 → "ExecICI/2"). Building the
// string is deferred to Name(), keeping fmt off the construction hot path.
type stateName struct {
	prefix string
	idx    int32 // -1: no suffix
}

func (n stateName) String() string {
	if n.idx < 0 {
		return n.prefix
	}
	return fmt.Sprintf("%s/%d", n.prefix, n.idx)
}

// Chain is a builder for an absorbing Markov chain. States are referenced
// by the integer handles returned from AddState/AddAbsorbing.
type Chain struct {
	names     []stateName
	residence []float64
	absorbing []bool
	// Edge arena: head/tail index the first/last edge of each state in
	// earena; edges of one state form a linked list in insertion order.
	head, tail []int32
	earena     []edgeNode
	start      int
	hasStart   bool
}

type edgeNode struct {
	to   int32
	next int32 // index of the next edge of the same state, -1 ends
	prob float64
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{}
}

// Reset empties the chain while keeping its storage, so one chain value can
// be rebuilt many times without reallocating.
func (c *Chain) Reset() {
	c.names = c.names[:0]
	c.residence = c.residence[:0]
	c.absorbing = c.absorbing[:0]
	c.head = c.head[:0]
	c.tail = c.tail[:0]
	c.earena = c.earena[:0]
	c.start = 0
	c.hasStart = false
}

func (c *Chain) addNamed(name stateName, residence float64, absorbing bool) int {
	c.names = append(c.names, name)
	c.residence = append(c.residence, residence)
	c.absorbing = append(c.absorbing, absorbing)
	c.head = append(c.head, -1)
	c.tail = append(c.tail, -1)
	return len(c.names) - 1
}

// AddState adds a transient state with the given per-visit residence time
// and returns its handle.
func (c *Chain) AddState(name string, residence float64) int {
	return c.AddStateIdx(name, -1, residence)
}

// AddStateIdx adds a transient state named prefix/idx (idx < 0: just
// prefix); the name is formatted only when actually read, so hot builders
// can label indexed states without paying fmt.Sprintf per state.
func (c *Chain) AddStateIdx(prefix string, idx int, residence float64) int {
	if residence < 0 || math.IsNaN(residence) {
		panic(fmt.Sprintf("markov: invalid residence time %v for state %q", residence, stateName{prefix, int32(idx)}))
	}
	return c.addNamed(stateName{prefix: prefix, idx: int32(idx)}, residence, false)
}

// AddAbsorbing adds an absorbing state and returns its handle.
func (c *Chain) AddAbsorbing(name string) int {
	return c.addNamed(stateName{prefix: name, idx: -1}, 0, true)
}

// SetStart marks the initial state of the chain.
func (c *Chain) SetStart(s int) {
	c.checkState(s)
	c.start = s
	c.hasStart = true
}

// Transition adds a transition from → to with the given probability.
// Probabilities out of a state must sum to 1 (checked in Analyze).
// Zero-probability transitions are dropped.
func (c *Chain) Transition(from, to int, prob float64) {
	c.checkState(from)
	c.checkState(to)
	if prob < 0 || prob > 1+1e-12 || math.IsNaN(prob) {
		panic(fmt.Sprintf("markov: invalid probability %v on %q→%q", prob, c.names[from], c.names[to]))
	}
	if c.absorbing[from] {
		panic(fmt.Sprintf("markov: transition out of absorbing state %q", c.names[from]))
	}
	if prob == 0 {
		return
	}
	e := int32(len(c.earena))
	c.earena = append(c.earena, edgeNode{to: int32(to), next: -1, prob: prob})
	if c.tail[from] < 0 {
		c.head[from] = e
	} else {
		c.earena[c.tail[from]].next = e
	}
	c.tail[from] = e
}

// edges iterates the out-edges of state s in insertion order.
func (c *Chain) edges(s int, visit func(to int, prob float64)) {
	for e := c.head[s]; e >= 0; e = c.earena[e].next {
		visit(int(c.earena[e].to), c.earena[e].prob)
	}
}

// outMass sums the outgoing probability of state s.
func (c *Chain) outMass(s int) float64 {
	sum := 0.0
	for e := c.head[s]; e >= 0; e = c.earena[e].next {
		sum += c.earena[e].prob
	}
	return sum
}

func (c *Chain) checkState(s int) {
	if s < 0 || s >= len(c.names) {
		panic(fmt.Sprintf("markov: unknown state handle %d", s))
	}
}

// NumStates returns the total number of states.
func (c *Chain) NumStates() int { return len(c.names) }

// Name returns the name of state s.
func (c *Chain) Name(s int) string {
	c.checkState(s)
	return c.names[s].String()
}

// Result holds the analysis outputs for an absorbing chain. Both slices are
// indexed by state handle and span every state of the chain.
type Result struct {
	// ExpectedTime is the expected accumulated residence time from the
	// start state until absorption.
	ExpectedTime float64
	// ExpectedVisits[s] is the expected number of visits to transient
	// state s from the start state; 0 for absorbing states.
	ExpectedVisits []float64
	// Absorption[s] is the probability of eventually being absorbed in
	// absorbing state s from the start state; 0 for transient states.
	Absorption []float64
}

// analyzeScratch holds the per-analysis working set: the transient index
// table, the sparse (I − Q)ᵀ system and its factors, the transient →
// absorbing block R and the solved visits. Pooled so steady-state analyses
// reuse one allocation set; release clears the system for the next use.
type analyzeScratch struct {
	transient []int32
	tIndex    []int32 // state handle → transient index
	sys       system
	// R in compressed rows: transient i's absorbing targets and their
	// accumulated probabilities are rTo/rVal[rStart[i]:rStart[i+1]].
	rStart, rTo []int32
	rVal        []float64
	visits      []float64
}

var scratchPool = sync.Pool{New: func() any { return &analyzeScratch{} }}

func acquire() *analyzeScratch { return scratchPool.Get().(*analyzeScratch) }

func release(sc *analyzeScratch) {
	sc.sys.clear()
	scratchPool.Put(sc)
}

// growI32 returns s resized to n entries, reusing capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// zeroed returns s resized to n zero entries, reusing capacity.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// assemble indexes the transient states and builds the (I − Q)ᵀ system and
// the transient→absorbing block R into sc, straight from the edge arena.
// Callers have already handled the degenerate absorbed-at-start case.
//
// Fundamental matrix N = (I − Q)⁻¹. Only the start row of N is needed:
// visits v = e_startᵀ·N, obtained by solving (I − Q)ᵀ·vᵀ = e_start.
// Transition i→j contributes −Q[i][j] to entry (j, i), so walking the
// transient states in order fills (I − Q)ᵀ column by column, each entry
// summed in edge-insertion order from its identity value.
func (c *Chain) assemble(sc *analyzeScratch) error {
	ns := len(c.names)
	sc.transient = sc.transient[:0]
	sc.tIndex = growI32(sc.tIndex, ns)
	for s := 0; s < ns; s++ {
		if !c.absorbing[s] {
			sc.tIndex[s] = int32(len(sc.transient))
			sc.transient = append(sc.transient, int32(s))
		}
	}
	if len(sc.transient) == ns {
		return fmt.Errorf("markov: chain has no absorbing state")
	}
	for _, s := range sc.transient {
		if sum := c.outMass(int(s)); math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	sc.sys.reset(len(sc.transient))
	sc.rStart, sc.rTo, sc.rVal = append(sc.rStart[:0], 0), sc.rTo[:0], sc.rVal[:0]
	for i, s := range sc.transient {
		sc.sys.add(i, i, 1)
		first := len(sc.rTo)
		for e := c.head[s]; e >= 0; e = c.earena[e].next {
			to, prob := c.earena[e].to, c.earena[e].prob
			if !c.absorbing[to] {
				sc.sys.add(int(sc.tIndex[to]), i, -prob)
				continue
			}
			k := first
			for k < len(sc.rTo) && sc.rTo[k] != to {
				k++
			}
			if k == len(sc.rTo) {
				sc.rTo, sc.rVal = append(sc.rTo, to), append(sc.rVal, 0)
			}
			sc.rVal[k] += prob
		}
		sc.rStart = append(sc.rStart, int32(len(sc.rTo)))
	}
	return nil
}

// factor factorizes the assembled system.
func (sc *analyzeScratch) factor() error {
	if err := sc.sys.factor(); err != nil {
		return fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
	}
	return nil
}

// solveStart solves (I − Q)ᵀ·visits = e_start into sc.visits with the
// factors held by f (sc's own, or a bit-identical system's).
func (c *Chain) solveStart(sc *analyzeScratch, f *system) {
	sc.visits = zeroed(sc.visits, len(sc.transient))
	f.solveUnit(sc.visits, int(sc.tIndex[c.start]))
}

// collect writes the solved visits into r. Expected time sums over the
// transient states in order; absorption probabilities are the start row of
// B = N·R, each summed over the transient states in order. The terms of R's
// zero entries are skipped: they are exact zeros added to a sum that is
// never −0.
func (c *Chain) collect(sc *analyzeScratch, r *Result) {
	ns := len(c.names)
	r.ExpectedTime = 0
	r.ExpectedVisits, r.Absorption = zeroed(r.ExpectedVisits, ns), zeroed(r.Absorption, ns)
	for i, s := range sc.transient {
		v := sc.visits[i]
		r.ExpectedVisits[s] = v
		r.ExpectedTime += v * c.residence[s]
	}
	for i, v := range sc.visits {
		for k := sc.rStart[i]; k < sc.rStart[i+1]; k++ {
			r.Absorption[sc.rTo[k]] += v * sc.rVal[k]
		}
	}
}

// Analyze validates the chain and computes expected time to absorption and
// absorption probabilities using the fundamental matrix.
func (c *Chain) Analyze() (*Result, error) {
	r := &Result{}
	if err := c.analyzeInto(r); err != nil {
		return nil, err
	}
	return r, nil
}

// analyzeInto is Analyze writing into a caller-owned Result.
func (c *Chain) analyzeInto(r *Result) error {
	if !c.hasStart {
		return fmt.Errorf("markov: no start state set")
	}
	if c.absorbing[c.start] {
		// Degenerate but legal: absorbed immediately.
		ns := len(c.names)
		r.ExpectedTime = 0
		r.ExpectedVisits, r.Absorption = zeroed(r.ExpectedVisits, ns), zeroed(r.Absorption, ns)
		r.Absorption[c.start] = 1
		return nil
	}
	sc := acquire()
	defer release(sc)
	if err := c.assemble(sc); err != nil {
		return err
	}
	if err := sc.factor(); err != nil {
		return err
	}
	c.solveStart(sc, &sc.sys)
	c.collect(sc, r)
	return nil
}

// AnalyzePair analyzes two chains together into ra and rb, answering both
// from a single factorization when their transient systems coincide bit for
// bit. The timing and functional chains of a checkpoint-free CLR
// configuration are the motivating case: both insert the same transient
// states in the same order with the same inter-state probabilities, so
// their (I − Q)ᵀ matrices are identical even though residence times and
// absorbing structure differ. Sharing is detected by bitwise comparison of
// the assembled systems — never assumed from the builders — so the results
// are bit-identical to a.Analyze() and b.Analyze() in every case. shared
// reports whether one factorization served both. ra and rb keep their
// storage across calls, so a caller that reuses them analyzes without
// allocating.
func AnalyzePair(a, b *Chain, ra, rb *Result) (shared bool, err error) {
	if !a.hasStart || !b.hasStart || a.absorbing[a.start] || b.absorbing[b.start] {
		// Missing-start errors and degenerate absorbed-at-start results keep
		// Analyze's exact behavior.
		if err = a.analyzeInto(ra); err != nil {
			return false, err
		}
		return false, b.analyzeInto(rb)
	}
	sa, sb := acquire(), acquire()
	defer release(sa)
	defer release(sb)
	if err = a.assemble(sa); err != nil {
		return false, err
	}
	if err = b.assemble(sb); err != nil {
		return false, err
	}
	shared = sa.sys.equalBits(&sb.sys)
	if err = sa.factor(); err != nil {
		return false, err
	}
	a.solveStart(sa, &sa.sys)
	fb := &sa.sys
	if !shared {
		if err = sb.factor(); err != nil {
			return false, err
		}
		fb = &sb.sys
	}
	// Factors are a deterministic function of the matrix bits, so b solved
	// against a's factors gets exactly what its own would give. The same
	// start row repeats a's solve; copying it is bit-identical.
	if shared && sa.tIndex[a.start] == sb.tIndex[b.start] {
		sb.visits = append(sb.visits[:0], sa.visits...)
	} else {
		b.solveStart(sb, fb)
	}
	a.collect(sa, ra)
	b.collect(sb, rb)
	return shared, nil
}

// AbsorptionProbability is a convenience accessor: the probability of
// absorption in the absorbing state with the given name, the lowest such
// handle when several share the name. The second return is false if no
// absorbing state has that name.
func (c *Chain) AbsorptionProbability(r *Result, name string) (float64, bool) {
	for s, n := range c.names {
		if c.absorbing[s] && n.prefix == name { // absorbing names carry no suffix
			return r.Absorption[s], true
		}
	}
	return 0, false
}

// Validate checks structural consistency without running the full analysis:
// every transient state has outgoing mass 1 and at least one absorbing
// state is reachable from the start state.
func (c *Chain) Validate() error {
	if !c.hasStart {
		return fmt.Errorf("markov: no start state set")
	}
	for s := range c.names {
		if c.absorbing[s] {
			continue
		}
		if sum := c.outMass(s); math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	// Reachability sweep.
	seen := map[int]bool{c.start: true}
	stack := []int{c.start}
	absorbReachable := false
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.absorbing[s] {
			absorbReachable = true
			continue
		}
		c.edges(s, func(to int, _ float64) {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		})
	}
	if !absorbReachable {
		return fmt.Errorf("markov: no absorbing state reachable from start")
	}
	return nil
}

// States returns the handles of all states in insertion order, useful for
// deterministic iteration in tests and dumps.
func (c *Chain) States() []int {
	out := make([]int, len(c.names))
	for i := range out {
		out[i] = i
	}
	return out
}

// Dump renders the chain structure deterministically for debugging.
func (c *Chain) Dump() string {
	out := ""
	for s := range c.names {
		kind := "transient"
		if c.absorbing[s] {
			kind = "absorbing"
		}
		out += fmt.Sprintf("%d %s (%s, residence %.4g)\n", s, c.names[s], kind, c.residence[s])
		type edge struct {
			to   int
			prob float64
		}
		var edges []edge
		c.edges(s, func(to int, prob float64) {
			edges = append(edges, edge{to: to, prob: prob})
		})
		sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
		for _, e := range edges {
			out += fmt.Sprintf("  → %s  p=%.6g\n", c.names[e.to], e.prob)
		}
	}
	return out
}

// SampleResult is one random walk through the chain.
type SampleResult struct {
	// Absorbed is the absorbing state the walk ended in.
	Absorbed int
	// Time is the accumulated residence time along the walk.
	Time float64
	// Steps counts state transitions taken.
	Steps int
}

// Sample performs one random walk from the start state to absorption,
// the Monte-Carlo counterpart of Analyze used for model validation.
// maxSteps bounds runaway walks (≤ 0 selects a generous default); walks
// exceeding the bound return an error.
func (c *Chain) Sample(rng *rand.Rand, maxSteps int) (SampleResult, error) {
	var res SampleResult
	if !c.hasStart {
		return res, fmt.Errorf("markov: no start state set")
	}
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	state := c.start
	for {
		if c.absorbing[state] {
			res.Absorbed = state
			return res, nil
		}
		res.Time += c.residence[state]
		first := c.head[state]
		if first < 0 {
			return res, fmt.Errorf("markov: transient state %q has no outgoing transitions", c.names[state])
		}
		r := rng.Float64()
		acc := 0.0
		next := -1
		// Falls through to the last edge when rounding leaves r ≥ Σp.
		for e := first; e >= 0; e = c.earena[e].next {
			acc += c.earena[e].prob
			next = int(c.earena[e].to)
			if r < acc {
				break
			}
		}
		state = next
		res.Steps++
		if res.Steps > maxSteps {
			return res, fmt.Errorf("markov: walk exceeded %d steps without absorbing", maxSteps)
		}
	}
}
