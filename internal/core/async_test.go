package core

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/engine"
)

// xlatOut records one TranslateAsync completion. It implements
// TranslationClient.
type xlatOut struct {
	pa addr.P
	at uint64
}

func (o *xlatOut) OnTranslated(pa addr.P, at uint64) { o.pa, o.at = pa, at }

// xlatIssuer injects TranslateAsync requests as engine events, the way
// the non-blocking front-end does.
type xlatIssuer struct {
	eng *engine.Engine
	m   *MMU
	fns []func()
}

func (xi *xlatIssuer) OnEvent(now uint64, kind uint8, payload uint64) {
	xi.fns[payload]()
}

// translateAt schedules one TranslateAsync request from the instruction
// at pc at time t and returns the record its completion will fill.
func (xi *xlatIssuer) translateAt(t uint64, v addr.V, pc uint64) *xlatOut {
	out := &xlatOut{}
	xi.fns = append(xi.fns, func() {
		xi.m.TranslateAsync(xi.eng, t, v, access.Read, pc, out)
	})
	xi.eng.Schedule(t, 0, xi, 0, uint64(len(xi.fns)-1))
	return out
}

// TestTranslateAsyncMatchesSynchronousTiming: a lone async translation
// (hit or walk) completes at the same time and with the same physical
// address as the synchronous path on an identically warmed MMU, for
// every mechanism ParseMechanism accepts. Each access carries its own
// nonzero PC, so NMT's identity check and PCAX's PC-table probe, hit
// and fill run through both paths; a flood of other pages evicts the
// first page from the L1 DTLB, so the return to it hits the PC table
// (PCAX) or the L2 TLB. The front-end and walker counters must agree at
// the end.
func TestTranslateAsyncMatchesSynchronousTiming(t *testing.T) {
	for mech := Mechanism(0); ; mech++ {
		if _, err := ParseMechanism(mech.String()); err != nil {
			break
		}
		var opts Options
		if mech == PCAX {
			opts.PCXEntries = 512
		}
		syncMMU, base := rig(t, mech, opts)
		asyncMMU, base2 := rig(t, mech, opts)
		if base != base2 {
			t.Fatalf("%v: rigs disagree on base", mech)
		}
		type acc struct {
			v  addr.V
			pc uint64
		}
		seq := []acc{{base, 0x400100}, {base + 64, 0x400104}, {base + 5*addr.PageSize, 0x400108}}
		for i := 0; i < 128; i++ {
			seq = append(seq, acc{base + addr.V((8+i)*addr.PageSize), 0x401000 + 4*uint64(i)})
		}
		seq = append(seq, acc{base + 128, 0x400100})
		for i, a := range seq {
			now := uint64(1000 * (i + 1))
			wantPA, wantDone := syncMMU.TranslatePC(now, a.v, access.Read, a.pc)

			eng := engine.New()
			xi := &xlatIssuer{eng: eng, m: asyncMMU}
			got := xi.translateAt(now, a.v, a.pc)
			eng.Run()
			if got.pa != wantPA || got.at != wantDone {
				t.Errorf("%v access %d: async (%#x, %d) != sync (%#x, %d)",
					mech, i, uint64(got.pa), got.at, uint64(wantPA), wantDone)
			}
		}
		if s, a := *syncMMU.Stats(), *asyncMMU.Stats(); s != a {
			t.Errorf("%v: front-end stats differ: sync %+v, async %+v", mech, s, a)
		}
		sw, aw := syncMMU.Walker().Stats(), asyncMMU.Walker().Stats()
		if sw.Walks != aw.Walks || sw.WalkCycles != aw.WalkCycles || sw.PTEAccesses != aw.PTEAccesses || sw.XlatHits != aw.XlatHits {
			t.Errorf("%v: walker stats differ: sync %d walks/%d cycles/%d PTE/%d xlat hits, async %d/%d/%d/%d",
				mech, sw.Walks, sw.WalkCycles, sw.PTEAccesses, sw.XlatHits, aw.Walks, aw.WalkCycles, aw.PTEAccesses, aw.XlatHits)
		}
		if s, a := *syncMMU.DTLB().Stats(), *asyncMMU.DTLB().Stats(); s != a {
			t.Errorf("%v: DTLB stats differ: sync %+v, async %+v", mech, s, a)
		}
		if pcx := syncMMU.PCXTable(); pcx != nil {
			if s, a := *pcx.Stats(), *asyncMMU.PCXTable().Stats(); s != a || s.Hits == 0 {
				t.Errorf("%v: PC-table stats sync %+v, async %+v (want equal, with hits)", mech, s, a)
			}
		}
		if mech == NMT && syncMMU.Stats().IdentityHits == 0 {
			t.Errorf("NMT: identity check never hit")
		}
	}
}

// TestTranslateAsyncCoalescesConcurrentMisses: two in-flight misses for
// one page perform a single walk, and the TLB fill lands at the walk's
// completion event — a third request after completion hits the TLB.
func TestTranslateAsyncCoalescesConcurrentMisses(t *testing.T) {
	mmu, base := rig(t, Radix, Options{})
	eng := engine.New()
	xi := &xlatIssuer{eng: eng, m: mmu}
	a := xi.translateAt(0, base, 0)
	b := xi.translateAt(10, base+64, 0)
	eng.Run()
	ws := mmu.Walker().Stats()
	if ws.Walks.Value() != 1 || ws.MSHRHits.Value() != 1 {
		t.Fatalf("walks=%d mshr=%d, want 1 walk + 1 coalesce", ws.Walks.Value(), ws.MSHRHits.Value())
	}
	if a.at != b.at {
		t.Errorf("coalesced translations complete at %d/%d, want equal", a.at, b.at)
	}

	// After completion the page is in the DTLB: a hit resolves in the
	// L1 TLB latency with no further walk.
	c := xi.translateAt(a.at+100, base+128, 0)
	eng.Run()
	if got := mmu.Walker().Stats().Walks.Value(); got != 1 {
		t.Errorf("TLB-filled page walked again (%d walks)", got)
	}
	if want := a.at + 100 + mmu.DTLB().Latency(); c.at != want {
		t.Errorf("post-fill hit completed at %d, want %d", c.at, want)
	}
}

// TestTranslateAsyncWindowContention: a private width-1 walker serializes
// a core's concurrent misses to different pages via the pending queue.
func TestTranslateAsyncWindowContention(t *testing.T) {
	mmu, base := rig(t, Radix, Options{})
	eng := engine.New()
	xi := &xlatIssuer{eng: eng, m: mmu}
	a := xi.translateAt(0, base, 0)
	b := xi.translateAt(0, base+addr.PageSize, 0)
	eng.Run()
	ws := mmu.Walker().Stats()
	if ws.Walks.Value() != 2 {
		t.Fatalf("walks = %d, want 2", ws.Walks.Value())
	}
	if ws.QueuedWalks.Value() != 1 {
		t.Errorf("queued = %d, want 1 (width-1 slot held)", ws.QueuedWalks.Value())
	}
	if !(b.at > a.at) {
		t.Errorf("second miss (%d) did not queue behind the first (%d)", b.at, a.at)
	}
}
