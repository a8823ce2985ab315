package ddg

import (
	"testing"
	"testing/quick"
)

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 3, 5, 1, 3)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Errorf("NewSet = %v, want %v", s, want)
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3, 4)) {
		t.Errorf("Intersect = %v", got)
	}
	if a.Disjoint(b) {
		t.Error("a and b are not disjoint")
	}
	if !NewSet(1, 2).Disjoint(NewSet(3, 4)) {
		t.Error("disjoint sets reported overlapping")
	}
	if !NewSet(2, 3).SubsetOf(a) {
		t.Error("subset not detected")
	}
	if NewSet(2, 9).SubsetOf(a) {
		t.Error("non-subset reported as subset")
	}
	if !a.Contains(3) || a.Contains(9) {
		t.Error("Contains misbehaves")
	}
}

func TestSetKeyCanonical(t *testing.T) {
	if NewSet(3, 1, 2).Key() != NewSet(2, 3, 1).Key() {
		t.Error("equal sets have different keys")
	}
	if NewSet(1, 2).Key() == NewSet(1, 3).Key() {
		t.Error("different sets share a key")
	}
	if NewSet(1, 12).Key() == NewSet(11, 2).Key() {
		t.Error("key is ambiguous across digit boundaries")
	}
}

func TestEmptySet(t *testing.T) {
	var empty Set
	if empty.Len() != 0 || empty.Contains(0) {
		t.Error("zero Set misbehaves")
	}
	if got := empty.Union(NewSet(1)); !got.Equal(NewSet(1)) {
		t.Errorf("empty.Union = %v", got)
	}
	if got := NewSet(1).Diff(empty); !got.Equal(NewSet(1)) {
		t.Errorf("Diff empty = %v", got)
	}
	if !empty.SubsetOf(NewSet(1)) || !empty.Disjoint(NewSet(1)) {
		t.Error("empty set subset/disjoint misbehaves")
	}
}

// toSet converts a random byte slice to a Set for property tests.
func toSet(bytes []byte) Set {
	ids := make([]NodeID, len(bytes))
	for i, b := range bytes {
		ids[i] = NodeID(b % 32)
	}
	return NewSet(ids...)
}

func TestSetAlgebraProperties(t *testing.T) {
	type lawFn func(a, b, c Set) bool
	laws := map[string]lawFn{
		"union commutes": func(a, b, _ Set) bool {
			return a.Union(b).Equal(b.Union(a))
		},
		"intersect commutes": func(a, b, _ Set) bool {
			return a.Intersect(b).Equal(b.Intersect(a))
		},
		"union associates": func(a, b, c Set) bool {
			return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
		},
		"diff then union restores subset": func(a, b, _ Set) bool {
			return a.Diff(b).Union(a.Intersect(b)).Equal(a)
		},
		"split is diff and intersect": func(a, b, _ Set) bool {
			d, c := a.Split(b)
			return d.Equal(a.Diff(b)) && c.Equal(a.Intersect(b))
		},
		"de morgan-ish: diff disjoint from intersect": func(a, b, _ Set) bool {
			return a.Diff(b).Disjoint(a.Intersect(b))
		},
		"subset of union": func(a, b, _ Set) bool {
			return a.SubsetOf(a.Union(b)) && b.SubsetOf(a.Union(b))
		},
		"intersect subset of both": func(a, b, _ Set) bool {
			i := a.Intersect(b)
			return i.SubsetOf(a) && i.SubsetOf(b)
		},
	}
	for name, law := range laws {
		law := law
		prop := func(x, y, z []byte) bool { return law(toSet(x), toSet(y), toSet(z)) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUnionAll(t *testing.T) {
	got := UnionAll(NewSet(1), NewSet(2, 3), NewSet(1, 4))
	if !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("UnionAll = %v", got)
	}
	if UnionAll().Len() != 0 {
		t.Error("UnionAll() should be empty")
	}
}

func TestClone(t *testing.T) {
	a := NewSet(1, 2)
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares backing storage")
	}
}
