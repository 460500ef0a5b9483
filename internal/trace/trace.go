// Package trace models the editing traces of the paper's evaluation
// (§4.1, Table 1) and provides deterministic synthetic generators for
// them.
//
// The paper benchmarks on recorded real-world traces (not available
// offline); the generators here are calibrated to the published Table 1
// statistics and reproduce the *behavioural* properties each trace class
// exercises:
//
//   - Sequential (S1–S3): single author or two authors taking turns; the
//     event graph is one linear chain of critical versions, so Eg-walker
//     runs entirely on its fast path.
//   - Concurrent (C1–C2): two live users with network latency; thousands
//     of short-lived branches that force constant retreat/advance work.
//   - Asynchronous (A1–A2): Git-style long-running branches by many
//     authors, the worst case for OT's quadratic merge.
package trace

import (
	"fmt"
	"math/rand"

	"egwalker/internal/causal"
	"egwalker/internal/listcrdt"
	"egwalker/internal/oplog"
)

// Kind classifies a trace per the paper's taxonomy.
type Kind int

const (
	Sequential Kind = iota
	Concurrent
	Asynchronous
)

func (k Kind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Concurrent:
		return "concurrent"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec parameterises a synthetic trace.
type Spec struct {
	Name   string
	Kind   Kind
	Seed   int64
	Events int // target number of events (inserts + deletes)
	// Authors is the number of distinct authors (sequential: taking
	// turns; async: one per branch segment, cycling).
	Authors int
	// RemainFrac is the target fraction of inserted characters that
	// survive to the final document.
	RemainFrac float64
	// BurstMean is the mean length of insert/delete runs.
	BurstMean int
	// JumpProb is the probability a burst starts at a random position
	// instead of the author's cursor.
	JumpProb float64

	// Concurrent traces: a user merges the other user's events only
	// after LatencySteps generation steps have passed.
	LatencySteps int

	// Asynchronous traces: branches forked per epoch, and the
	// probability that an epoch is a plain linear segment instead.
	BranchesMin, BranchesMax int
	LinearEpochProb          float64
	// EpochEvents is the approximate number of events per branch
	// segment.
	EpochEvents int
}

// Scale returns a copy of the spec with the event count scaled by f
// (benchmarks use reduced sizes; EXPERIMENTS.md records the scale).
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Events = int(float64(s.Events) * f)
	if out.Events < 100 {
		out.Events = 100
	}
	if s.EpochEvents > 0 {
		out.EpochEvents = int(float64(s.EpochEvents) * f)
		if out.EpochEvents < 50 {
			out.EpochEvents = 50
		}
	}
	return out
}

// Presets calibrated to Table 1. Event counts are the paper's
// (post-repeat) totals.
var (
	// S1: LaTeX journal paper, two authors taking turns, 57.5% remains.
	S1 = Spec{Name: "S1", Kind: Sequential, Seed: 101, Events: 779_000,
		Authors: 2, RemainFrac: 0.575, BurstMean: 10, JumpProb: 0.03}
	// S2: 8,800-word blog post, one author, 26.7% remains.
	S2 = Spec{Name: "S2", Kind: Sequential, Seed: 102, Events: 1_105_000,
		Authors: 1, RemainFrac: 0.267, BurstMean: 12, JumpProb: 0.02}
	// S3: this paper's text, two authors, heavy rewriting (9.9% remains).
	S3 = Spec{Name: "S3", Kind: Sequential, Seed: 103, Events: 2_339_000,
		Authors: 2, RemainFrac: 0.099, BurstMean: 9, JumpProb: 0.04}
	// C1: two users writing together, 1 s artificial latency.
	C1 = Spec{Name: "C1", Kind: Concurrent, Seed: 201, Events: 652_000,
		Authors: 2, RemainFrac: 0.901, BurstMean: 7, JumpProb: 0.02, LatencySteps: 3}
	// C2: same, 0.5 s latency (slightly shorter runs, more branches).
	C2 = Spec{Name: "C2", Kind: Concurrent, Seed: 202, Events: 608_000,
		Authors: 2, RemainFrac: 0.930, BurstMean: 5, JumpProb: 0.02, LatencySteps: 2}
	// A1: src/node.cc Git history — mostly linear, a few branches, 194
	// authors, heavy net deletion (7.8% remains).
	A1 = Spec{Name: "A1", Kind: Asynchronous, Seed: 301, Events: 947_000,
		Authors: 194, RemainFrac: 0.078, BurstMean: 40, JumpProb: 0.3,
		BranchesMin: 2, BranchesMax: 3, LinearEpochProb: 0.75, EpochEvents: 20_000}
	// A2: Git's Makefile — 299 authors, long overlapping branches
	// (average concurrency 6.11), OT's nightmare.
	A2 = Spec{Name: "A2", Kind: Asynchronous, Seed: 302, Events: 698_000,
		Authors: 299, RemainFrac: 0.496, BurstMean: 30, JumpProb: 0.3,
		BranchesMin: 5, BranchesMax: 9, LinearEpochProb: 0.1, EpochEvents: 1_500}
)

// All returns the seven benchmark trace specs in paper order.
func All() []Spec { return []Spec{S1, S2, S3, C1, C2, A1, A2} }

// ByName returns the preset with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate builds the event log for a spec. Generation is deterministic
// in the spec (including seed).
func Generate(s Spec) (*oplog.Log, error) {
	switch s.Kind {
	case Sequential:
		return genSequential(s)
	case Concurrent:
		return genConcurrent(s)
	case Asynchronous:
		return genAsync(s)
	default:
		return nil, fmt.Errorf("trace: unknown kind %v", s.Kind)
	}
}

// letters used for generated content (ASCII keeps sizes comparable to
// the paper's English-text traces).
const letters = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ.,\n"

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// burstLen draws a run length with the given mean (geometric-ish).
func burstLen(rng *rand.Rand, mean int) int {
	n := 1
	for rng.Float64() > 1.0/float64(mean) && n < 10*mean {
		n++
	}
	return n
}

// editMix steers the ratio of deletions to insertions so the fraction
// of inserted characters remaining converges to the target, even though
// individual delete bursts get clamped at document boundaries.
type editMix struct {
	remainFrac        float64
	inserted, deleted int
}

// next reports whether the next burst should be a deletion.
func (m *editMix) next(rng *rand.Rand) bool {
	if m.inserted == 0 {
		return false
	}
	target := float64(m.inserted) * (1 - m.remainFrac)
	if float64(m.deleted) >= target {
		return rng.Float64() < 0.05 // background churn
	}
	return rng.Float64() < 0.55
}

func (m *editMix) record(isDelete bool, n int) {
	if isDelete {
		m.deleted += n
	} else {
		m.inserted += n
	}
}

// --- sequential ----------------------------------------------------------

func genSequential(s Spec) (*oplog.Log, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	l := oplog.New()
	mix := editMix{remainFrac: s.RemainFrac}
	docLen := 0
	cursor := 0
	author := 0
	turnLeft := 500 + rng.Intn(1500)
	var frontier []causal.LV

	for l.Len() < s.Events {
		if turnLeft <= 0 && s.Authors > 1 {
			author = (author + 1) % s.Authors
			turnLeft = 500 + rng.Intn(1500)
		}
		agent := fmt.Sprintf("author%d", author)
		if rng.Float64() < s.JumpProb {
			cursor = rng.Intn(docLen + 1)
		}
		n := burstLen(rng, s.BurstMean)
		if left := s.Events - l.Len(); n > left {
			n = left
		}
		isDelete := mix.next(rng) && docLen > 0
		var sp causal.Span
		var err error
		if isDelete {
			// Backspace-style: delete the n characters before the cursor.
			if cursor == 0 {
				cursor = docLen
			}
			if n > cursor {
				n = cursor
			}
			ops := make([]oplog.Op, n)
			for i := range ops {
				ops[i] = oplog.Op{Kind: oplog.Delete, Pos: cursor - 1 - i}
			}
			sp, err = l.Add(agent, frontier, ops)
			cursor -= n
			docLen -= n
		} else {
			if cursor > docLen {
				cursor = docLen
			}
			sp, err = l.AddInsert(agent, frontier, cursor, randText(rng, n))
			cursor += n
			docLen += n
		}
		if err != nil {
			return nil, err
		}
		mix.record(isDelete, sp.Len())
		frontier = []causal.LV{sp.End - 1}
		turnLeft -= n
	}
	return l, nil
}

// --- concurrent ----------------------------------------------------------

// user is one live collaborator in a concurrent trace: a real CRDT
// replica (so generated positions are always valid in the user's view),
// a cursor, and a frontier in the shared log.
type user struct {
	doc      *listcrdt.Doc
	agent    string
	frontier causal.Frontier
	cursor   int
	// delivered is the index into the idop list of events this user has
	// merged.
	delivered int
}

func (u *user) applyPatch(p listcrdt.Patch) {
	if p.Noop {
		return
	}
	if p.Kind == oplog.Insert {
		if p.Pos <= u.cursor {
			u.cursor++
		}
	} else if p.Pos < u.cursor {
		u.cursor--
	}
}

func genConcurrent(s Spec) (*oplog.Log, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	l := oplog.New()
	mix := editMix{remainFrac: s.RemainFrac}

	// idops in log (storage) order, with the generating user, for
	// latency-delayed delivery to the other user.
	type stamped struct {
		op   listcrdt.Op
		user int
		step int
	}
	var ops []stamped

	users := [2]*user{
		{doc: listcrdt.New(), agent: "user0"},
		{doc: listcrdt.New(), agent: "user1"},
	}
	step := 0
	for l.Len() < s.Events {
		step++
		ui := rng.Intn(2)
		u := users[ui]
		// Deliver the other user's events that are old enough.
		for u.delivered < len(ops) {
			st := ops[u.delivered]
			if st.user != ui && step-st.step < s.LatencySteps {
				break
			}
			if st.user != ui {
				p, err := u.doc.ApplyRemote(st.op)
				if err != nil {
					return nil, err
				}
				u.applyPatch(p)
				lv, ok := l.Graph.LVOf(causal.RawID{Agent: st.op.Agent, Seq: st.op.Seq})
				if !ok {
					return nil, fmt.Errorf("trace: undelivered op %d", st.op.ID)
				}
				u.frontier = l.Graph.FrontierOf(append(u.frontier.Clone(), lv))
			}
			u.delivered++
		}
		if u.cursor > u.doc.Len() {
			u.cursor = u.doc.Len()
		}

		if rng.Float64() < s.JumpProb {
			u.cursor = rng.Intn(u.doc.Len() + 1)
		}
		n := burstLen(rng, s.BurstMean)
		if left := s.Events - l.Len(); n > left {
			n = left
		}
		isDelete := mix.next(rng) && u.doc.Len() > 0
		baseLV := causal.LV(l.Len())
		seq := l.Graph.SeqEnd(u.agent)
		var logOps []oplog.Op
		if isDelete {
			if n > u.cursor {
				n = u.cursor
			}
			if n == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				pos := u.cursor - 1 - i
				logOps = append(logOps, oplog.Op{Kind: oplog.Delete, Pos: pos})
				op, err := u.doc.LocalDelete(int64(baseLV)+int64(i), u.agent, seq+i, pos)
				if err != nil {
					return nil, err
				}
				ops = append(ops, stamped{op, ui, step})
			}
			u.cursor -= n
		} else {
			if u.cursor > u.doc.Len() {
				u.cursor = u.doc.Len()
			}
			text := randText(rng, n)
			for i, c := range text {
				pos := u.cursor + i
				logOps = append(logOps, oplog.Op{Kind: oplog.Insert, Pos: pos, Content: c})
				op, err := u.doc.LocalInsert(int64(baseLV)+int64(i), u.agent, seq+i, pos, c)
				if err != nil {
					return nil, err
				}
				ops = append(ops, stamped{op, ui, step})
			}
			u.cursor += n
		}
		sp, err := l.AddRemote(u.agent, seq, u.frontier, logOps)
		if err != nil {
			return nil, err
		}
		mix.record(isDelete, sp.Len())
		u.frontier = causal.Frontier{sp.End - 1}
	}
	return l, nil
}

// --- asynchronous --------------------------------------------------------

func genAsync(s Spec) (*oplog.Log, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	l := oplog.New()
	mix := editMix{remainFrac: s.RemainFrac}

	main := listcrdt.New()
	mainFrontier := causal.Frontier{}
	nextAuthor := 0

	// segment runs one author's burst sequence on a branch replica,
	// returning the branch's final frontier and the idops generated.
	segment := func(doc *listcrdt.Doc, frontier causal.Frontier, events int) (causal.Frontier, []listcrdt.Op, error) {
		agent := fmt.Sprintf("dev%d", nextAuthor%max(s.Authors, 1))
		nextAuthor++
		cursor := rng.Intn(doc.Len() + 1)
		var made []listcrdt.Op
		for done := 0; done < events && l.Len() < s.Events; {
			if rng.Float64() < s.JumpProb {
				cursor = rng.Intn(doc.Len() + 1)
			}
			n := burstLen(rng, s.BurstMean)
			if n > events-done {
				n = events - done
			}
			if left := s.Events - l.Len(); n > left {
				n = left
			}
			if n == 0 {
				break
			}
			isDelete := mix.next(rng) && doc.Len() > 0
			baseLV := causal.LV(l.Len())
			seq := l.Graph.SeqEnd(agent)
			var logOps []oplog.Op
			if isDelete {
				if n > cursor {
					n = cursor
				}
				if n == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					pos := cursor - 1 - i
					logOps = append(logOps, oplog.Op{Kind: oplog.Delete, Pos: pos})
					op, err := doc.LocalDelete(int64(baseLV)+int64(i), agent, seq+i, pos)
					if err != nil {
						return nil, nil, err
					}
					made = append(made, op)
				}
				cursor -= n
			} else {
				if cursor > doc.Len() {
					cursor = doc.Len()
				}
				text := randText(rng, n)
				for i, c := range text {
					pos := cursor + i
					logOps = append(logOps, oplog.Op{Kind: oplog.Insert, Pos: pos, Content: c})
					op, err := doc.LocalInsert(int64(baseLV)+int64(i), agent, seq+i, pos, c)
					if err != nil {
						return nil, nil, err
					}
					made = append(made, op)
				}
				cursor += n
			}
			sp, err := l.AddRemote(agent, seq, frontier, logOps)
			if err != nil {
				return nil, nil, err
			}
			mix.record(isDelete, sp.Len())
			frontier = causal.Frontier{sp.End - 1}
			done += n
		}
		return frontier, made, nil
	}

	// Seed the document with a linear segment so branches have content.
	f, _, err := segment(main, mainFrontier, s.EpochEvents)
	if err != nil {
		return nil, err
	}
	mainFrontier = f

	for l.Len() < s.Events {
		if rng.Float64() < s.LinearEpochProb {
			f, _, err := segment(main, mainFrontier, s.EpochEvents)
			if err != nil {
				return nil, err
			}
			mainFrontier = f
			continue
		}
		// Fork-join epoch: several branches from the current main state.
		nb := s.BranchesMin
		if s.BranchesMax > s.BranchesMin {
			nb += rng.Intn(s.BranchesMax - s.BranchesMin + 1)
		}
		heads := make([]causal.Frontier, 0, nb)
		var allOps [][]listcrdt.Op
		for b := 0; b < nb && l.Len() < s.Events; b++ {
			var doc *listcrdt.Doc
			if b == nb-1 {
				doc = main // last branch edits main's replica directly
			} else {
				doc = main.Clone()
			}
			f, made, err := segment(doc, mainFrontier.Clone(), s.EpochEvents)
			if err != nil {
				return nil, err
			}
			heads = append(heads, f)
			if b == nb-1 {
				allOps = append(allOps, nil)
			} else {
				allOps = append(allOps, made)
			}
		}
		// Merge: apply every other branch's ops to main.
		for _, made := range allOps {
			for _, op := range made {
				if _, err := main.ApplyRemote(op); err != nil {
					return nil, err
				}
			}
		}
		var merged []causal.LV
		for _, h := range heads {
			merged = append(merged, h...)
		}
		mainFrontier = l.Graph.FrontierOf(merged)
	}
	return l, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
