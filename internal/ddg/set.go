package ddg

import (
	"slices"
	"sort"
	"strconv"
)

// Set is a sorted, duplicate-free set of node ids. The zero value is the
// empty set. Sets are the currency of the iterative pattern finder:
// sub-DDGs, matched components, subtraction and fusion all operate on node
// sets over the original graph (paper §5).
type Set []NodeID

// NewSet builds a set from arbitrary ids, sorting and deduplicating.
func NewSet(ids ...NodeID) Set {
	s := make(Set, len(ids))
	copy(s, ids)
	return sortDedup(s)
}

// sortDedup sorts ids in place and drops duplicates, returning the prefix
// that holds the set.
func sortDedup(ids []NodeID) Set {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Contains reports membership via binary search.
func (s Set) Contains(id NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	diff, _ := s.Split(t)
	return diff
}

// Split returns s \ t and s ∩ t from one merge pass, for callers that need
// both halves of s (the finder's subtract keeps the removed part to derive
// the difference's census from its parent's). The halves share one
// allocation of len(s) ids: the difference fills it from the front, the
// intersection from the back, and each is capped so appending to one
// never overwrites the other.
func (s Set) Split(t Set) (diff, common Set) {
	buf := make(Set, len(s))
	d, c := 0, len(s)
	j := 0
	for _, u := range s {
		for j < len(t) && t[j] < u {
			j++
		}
		if j < len(t) && t[j] == u {
			c--
			buf[c] = u
		} else {
			buf[d] = u
			d++
		}
	}
	common = buf[c:]
	slices.Reverse(common)
	return buf[:d:d], common
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := make(Set, 0, min(len(s), len(t)))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) {
		for j < len(t) && t[j] < s[i] {
			j++
		}
		if j >= len(t) || t[j] != s[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool {
	if len(s) == 0 || len(t) == 0 {
		return true
	}
	// Range fast path: patterns are localized in the id space, so most
	// pairs the finder compares do not even overlap in range.
	if s[len(s)-1] < t[0] || t[len(t)-1] < s[0] {
		return true
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// Key returns a canonical string key, used to reject duplicate sub-DDGs in
// the pattern finder pool (the termination argument of Algorithm 1).
func (s Set) Key() string {
	buf := make([]byte, 0, len(s)*7)
	for i, id := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(id), 10)
	}
	return string(buf)
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// UnionAll returns the union of several sets: one concatenation and one
// sort, linear in the total size for the common case of sets that already
// follow each other in id order. The result is nil for no sets and a fresh
// (possibly empty) set otherwise.
func UnionAll(sets ...Set) Set {
	if len(sets) == 0 {
		return nil
	}
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make(Set, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	return sortDedup(out)
}
