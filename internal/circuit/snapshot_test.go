package circuit

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// encodeEntries writes a cache snapshot holding exactly the given entries,
// in the given order, as a tampered encoder would.
func encodeEntries(t *testing.T, entries []*Entry) *snapshot.Reader {
	t.Helper()
	src := NewCache(8, LRU{})
	src.entries = entries
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDecodeStateRejectsCorruptEntries checks that a cache refuses entry
// lists it could never hold: duplicated or unsorted destinations, and more
// entries than its capacity.
func TestDecodeStateRejectsCorruptEntries(t *testing.T) {
	e := func(dst topology.Node) *Entry { return established(ID(dst), dst, topology.LinkID(dst)) }
	cases := []struct {
		name     string
		entries  []*Entry
		capacity int
		want     string
	}{
		{"duplicate destination", []*Entry{e(1), e(4), e(4)}, 4, "ascending destination order"},
		{"unsorted destinations", []*Entry{e(5), e(2)}, 4, "ascending destination order"},
		{"over capacity", []*Entry{e(1), e(2), e(3)}, 2, "capacity 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.capacity, LRU{})
			err := c.DecodeState(encodeEntries(t, tc.entries))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeState = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	// The well-formed list restores, in order.
	c := NewCache(4, LRU{})
	if err := c.DecodeState(encodeEntries(t, []*Entry{e(1), e(3), e(9)})); err != nil {
		t.Fatal(err)
	}
	got := c.Entries()
	if len(got) != 3 || got[0].Dest != 1 || got[1].Dest != 3 || got[2].Dest != 9 {
		t.Fatalf("restored entries %v", got)
	}
}
