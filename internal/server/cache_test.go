package server

import (
	"fmt"
	"testing"

	"repro/internal/cube"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	a, b, d := &cachedFill{Peak: 1}, &cachedFill{Peak: 2}, &cachedFill{Peak: 3}
	c.Put("a", a)
	c.Put("b", b)
	// Touch "a" so "b" is the eviction victim. (The cache copies
	// entries both ways, so identity is by value, not pointer.)
	if got, ok := c.Get("a"); !ok || got.Peak != a.Peak {
		t.Fatal("a missing before eviction")
	}
	c.Put("d", d)
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for key, want := range map[string]*cachedFill{"a": a, "d": d} {
		if got, ok := c.Get(key); !ok || got.Peak != want.Peak {
			t.Fatalf("%s evicted or replaced", key)
		}
	}
	// Refreshing an existing key must not grow the cache.
	c.Put("a", d)
	if c.Len() != 2 {
		t.Fatalf("len %d after refresh, want 2", c.Len())
	}
	if got, _ := c.Get("a"); got.Peak != d.Peak {
		t.Fatal("refresh did not replace the value")
	}
}

func TestCacheEntriesDoNotAliasCallers(t *testing.T) {
	c := newLRUCache(4)
	entry := &cachedFill{
		Cubes:   []string{"0101", "1010"},
		Perm:    []int{1, 0},
		Peak:    4,
		Total:   4,
		Profile: []int{4},
	}
	c.Put("k", entry)
	// Overwriting a slot of what the caller passed to Put must not
	// reach the cache.
	entry.Cubes[0] = "1111"
	entry.Perm[0] = 99
	entry.Profile[0] = 99
	served, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if served.Cubes[0] != "0101" || served.Perm[0] != 1 || served.Profile[0] != 4 {
		t.Fatalf("Put aliased the caller's data: %+v", served)
	}
	// Overwriting a slot of a served entry must not reach the cache
	// either.
	served.Cubes[1] = "0000"
	served.Perm[1] = 99
	served.Profile[0] = 99
	again, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing on second get")
	}
	if again.Cubes[1] != "1010" || again.Perm[1] != 0 || again.Profile[0] != 4 {
		t.Fatalf("Get handed out a live slice of the cache: %+v", again)
	}
}

func TestCachedFillCloneHandlesNilFields(t *testing.T) {
	e := &cachedFill{Peak: 7}
	got := e.clone()
	if got.Cubes != nil || got.Perm != nil || got.Profile != nil || got.Explain != nil || got.Peak != 7 {
		t.Fatalf("clone of sparse entry: %+v", got)
	}
}

func TestNilCacheNeverHits(t *testing.T) {
	var c *lruCache
	c.Put("k", &cachedFill{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestFillDigestDiscriminates(t *testing.T) {
	s1 := cube.MustParseSet("0X", "X1")
	s2 := cube.MustParseSet("0X", "X0")
	// Same width/row-count matrix whose concatenation could collide
	// without per-cube separators.
	s3 := cube.MustParseSet("0XX1")
	base := fillDigest(s1, "Tool", "DP-fill", 1)
	for name, other := range map[string]string{
		"different cubes":   fillDigest(s2, "Tool", "DP-fill", 1),
		"different shape":   fillDigest(s3, "Tool", "DP-fill", 1),
		"different orderer": fillDigest(s1, "I-Order", "DP-fill", 1),
		"different filler":  fillDigest(s1, "Tool", "MT-fill", 1),
		"different seed":    fillDigest(s1, "Tool", "DP-fill", 2),
	} {
		if other == base {
			t.Errorf("%s digests collide", name)
		}
	}
	if fillDigest(s1, "Tool", "DP-fill", 1) != base {
		t.Error("digest is not deterministic")
	}
}

func TestLRUCacheStress(t *testing.T) {
	c := newLRUCache(8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i%16), &cachedFill{Peak: i})
		c.Get(fmt.Sprintf("k%d", (i*7)%16))
		if c.Len() > 8 {
			t.Fatalf("cache grew past capacity: %d", c.Len())
		}
	}
}
