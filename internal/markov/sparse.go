package markov

import (
	"fmt"
	"math"
)

// system is the transposed transient system (I − Q)ᵀ of one chain, held
// sparsely, and after factor its LU factors with partial pivoting in place.
//
// Values live in an n×n row-major array indexed by original row and column,
// with a parallel membership flag per entry; the nonzero pattern is also
// kept as per-row column lists (ascending) and per-column row lists
// (unordered), each with a fixed capacity of n per line. Entries outside
// the pattern are always +0 and unflagged: clear restores that by resetting
// only the entries the pattern touched, so the arrays are never swept
// whole.
//
// Rows are never moved. A pivot swap exchanges logical positions through
// perm/pos, and each row carries its multipliers with it, exactly as the
// dense kernel swaps whole rows, L part included. perm[k] is then the
// original row at logical position k: the dense kernel's pivot vector.
//
// factor and solveUnit perform the dense kernel's operations on the
// pattern's entries in the dense kernel's order and skip the rest. Every
// skipped term is an exact zero and cannot change its target, because the
// array never holds −0 where a sum is taken: assembled entries are sums of
// −p with p > 0 (plus 1 on the diagonal), x − x rounds to +0, and
// x − (±0) = x for every x other than −0. Multipliers may be −0 (a +0
// entry times a negative reciprocal), but they only ever scale a term that
// is subtracted from a value that is not −0. So the factors and solutions
// are bit-identical to the dense kernel's whenever its values stay finite,
// which the bounded probabilities of a valid chain guarantee in practice.
type system struct {
	n              int
	val            []float64
	has            []bool  // has[i*n+j]: (i, j) is in the pattern
	rowIdx, colIdx []int32 // line i's entries at [i*n : i*n+len[i]]
	rowLen, colLen []int32
	perm, pos      []int32
}

// reset prepares an empty n×n system. The system must be clear: either
// fresh or cleared after its last use.
func (s *system) reset(n int) {
	s.n = n
	if cap(s.val) < n*n {
		s.val = make([]float64, n*n)
		s.has = make([]bool, n*n)
		s.rowIdx = make([]int32, n*n)
		s.colIdx = make([]int32, n*n)
	}
	s.val, s.has = s.val[:n*n], s.has[:n*n]
	s.rowIdx, s.colIdx = s.rowIdx[:n*n], s.colIdx[:n*n]
	s.rowLen, s.colLen = growI32(s.rowLen, n), growI32(s.colLen, n)
	s.perm, s.pos = growI32(s.perm, n), growI32(s.pos, n)
}

// clear zeroes every entry of the pattern (fill included) and empties the
// lists, restoring the all-zero value array for the next reset.
func (s *system) clear() {
	n := s.n
	for i := 0; i < n; i++ {
		for _, j := range s.row(i) {
			s.val[i*n+int(j)], s.has[i*n+int(j)] = 0, false
		}
		s.rowLen[i], s.colLen[i] = 0, 0
	}
	s.n = 0
}

func (s *system) row(i int) []int32 { return s.rowIdx[i*s.n : i*s.n+int(s.rowLen[i])] }
func (s *system) col(j int) []int32 { return s.colIdx[j*s.n : j*s.n+int(s.colLen[j])] }

// add performs entry(i, j) += v during assembly.
func (s *system) add(i, j int, v float64) {
	k := i*s.n + j
	if !s.has[k] {
		s.insert(i, int32(j))
	}
	s.val[k] += v
}

// insert adds the structurally new entry (i, j) to the pattern, keeping row
// i ascending. Its value is the +0 the array already holds there.
func (s *system) insert(i int, j int32) {
	s.has[i*s.n+int(j)] = true
	r := s.rowIdx[i*s.n : i*s.n+int(s.rowLen[i])+1]
	p := len(r) - 1
	for p > 0 && r[p-1] > j {
		r[p] = r[p-1]
		p--
	}
	r[p] = j
	s.rowLen[i]++
	s.colIdx[int(j)*s.n+int(s.colLen[j])] = int32(i)
	s.colLen[j]++
}

// equalBits reports whether s and o hold bit-identical matrices. Both
// arrays are +0 outside their patterns, so comparing the union of the two
// patterns compares every entry.
func (s *system) equalBits(o *system) bool {
	if s.n != o.n {
		return false
	}
	return s.patternMatches(o) && o.patternMatches(s)
}

// patternMatches reports whether o agrees bitwise with s on s's pattern.
func (s *system) patternMatches(o *system) bool {
	n := s.n
	for i := 0; i < n; i++ {
		for _, j := range s.row(i) {
			k := i*n + int(j)
			if math.Float64bits(s.val[k]) != math.Float64bits(o.val[k]) {
				return false
			}
		}
	}
	return true
}

// factor computes the LU factorization in place: right-looking Gaussian
// elimination with partial pivoting, the largest magnitude in the column
// winning and ties going to the diagonal, then to the lowest logical row.
func (s *system) factor() error {
	n := s.n
	for i := 0; i < n; i++ {
		s.perm[i], s.pos[i] = int32(i), int32(i)
	}
	for k := 0; k < n; k++ {
		p := s.perm[k]
		max := math.Abs(s.val[int(p)*n+k])
		for _, r := range s.col(k) {
			if int(s.pos[r]) <= k {
				continue
			}
			if a := math.Abs(s.val[int(r)*n+k]); a > max || (a == max && s.pos[r] < s.pos[p]) {
				max, p = a, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("singular matrix at pivot %d", k)
		}
		if pk := s.pos[p]; int(pk) != k {
			q := s.perm[k]
			s.perm[k], s.perm[pk] = p, q
			s.pos[p], s.pos[q] = int32(k), pk
		}
		pr := int(p) * n
		prow := s.row(int(p))
		inv := 1 / s.val[pr+k]
		for _, r := range s.col(k) {
			if int(s.pos[r]) <= k {
				continue
			}
			ri := int(r) * n
			f := s.val[ri+k] * inv
			s.val[ri+k] = f
			if f == 0 {
				continue
			}
			for _, j := range prow {
				if int(j) <= k {
					continue
				}
				if !s.has[ri+int(j)] {
					s.insert(int(r), j)
				}
				s.val[ri+int(j)] -= f * s.val[pr+int(j)]
			}
		}
	}
	return nil
}

// solveUnit solves A·x = e_t with the factors, walking each row's entries
// in ascending column order like the dense substitutions.
func (s *system) solveUnit(x []float64, t int) {
	n := s.n
	for i := range x {
		x[i] = 0
		if int(s.perm[i]) == t {
			x[i] = 1
		}
	}
	for i := 1; i < n; i++ {
		r := int(s.perm[i])
		sum := x[i]
		for _, j := range s.row(r) {
			if int(j) >= i {
				break
			}
			sum -= s.val[r*n+int(j)] * x[j]
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		r := int(s.perm[i])
		sum := x[i]
		for _, j := range s.row(r) {
			if int(j) > i {
				sum -= s.val[r*n+int(j)] * x[j]
			}
		}
		x[i] = sum / s.val[r*n+i]
	}
}
