package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a, err := newRing([]string{"n1:1", "n2:1", "n3:1"}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRing([]string{"n3:1", "n1:1", "n2:1"}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if got, want := a.Replicas(id), b.Replicas(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %q: placement depends on node order: %v vs %v", id, got, want)
		}
	}
}

func TestRingReplicaSetDistinctPrimaryFirst(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r, err := newRing(nodes, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("doc-%d", i)
		reps := r.Replicas(id)
		if len(reps) != 3 {
			t.Fatalf("doc %q: got %d replicas, want 3", id, len(reps))
		}
		seen := map[string]bool{}
		for _, a := range reps {
			if seen[a] {
				t.Fatalf("doc %q: duplicate replica %q in %v", id, a, reps)
			}
			seen[a] = true
		}
		if r.Primary(id) != reps[0] {
			t.Fatalf("doc %q: Primary %q != Replicas[0] %q", id, r.Primary(id), reps[0])
		}
	}
}

func TestRingSpreadsPrimaries(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r, err := newRing(nodes, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const docs = 3000
	for i := 0; i < docs; i++ {
		counts[r.Primary(fmt.Sprintf("doc-%d", i))]++
	}
	for _, n := range nodes {
		// With 64 vnodes the split across 3 nodes should be well
		// within 2x of even.
		if c := counts[n]; c < docs/6 || c > docs*2/3 {
			t.Fatalf("node %q owns %d of %d docs — ring badly imbalanced: %v", n, c, docs, counts)
		}
	}
}

func TestRingClampsAndRejects(t *testing.T) {
	if _, err := newRing(nil, 0, 1); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := newRing([]string{"a:1", "a:1"}, 0, 1); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := newRing([]string{"a:1", ""}, 0, 1); err == nil {
		t.Fatal("empty node address accepted")
	}
	r, err := newRing([]string{"a:1", "b:1"}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.replicas != 2 {
		t.Fatalf("replication factor %d, want clamped 2", r.replicas)
	}
	if got := len(r.Replicas("x")); got != 2 {
		t.Fatalf("got %d replicas, want 2", got)
	}
}
