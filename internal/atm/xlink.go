package atm

import (
	"fmt"

	"repro/internal/sim"
)

// Cross-shard links.
//
// A link whose endpoints live on different engines of a sim.ShardGroup
// is the shard boundary of the conservative-parallel simulation: its
// fixed PropDelay is the lookahead that bounds how far the shards may
// advance between barriers. The sender half runs unchanged on the
// source engine — FIFO occupancy, serialization pacing, backpressure —
// but instead of scheduling delivery events locally it appends each
// cell to an outbound buffer together with the canonical stamp
// (deliver, schedAt, seq) a local link gives its delivery event (see
// Link.enqueue). At every window barrier the group flushes the buffer
// into the destination engine with Engine.InjectStamped, so the merged
// execution orders cross-shard deliveries exactly where a local link
// on one engine would have. Paced mode stamps each cell with the pacing
// proc's current instant, the instant the serial machine schedules its
// delivery at.
//
// Delivery runs on the destination engine. Deterministic links keep the
// serial walker structure — cells wait in a receive train and a single
// walker event re-arms itself along it — so steady state allocates
// nothing. Paced links (fault injection reorders deliveries, breaking
// the walker's monotonicity) inject one event per cell instead, which
// matches the serial paced machine's per-cell closures.

// xcell is one cross-shard cell in flight: the payload plus the
// canonical stamp of its delivery event.
type xcell struct {
	c       Cell
	deliver sim.Time
	schedAt sim.Time
	seq     uint64
}

// xlink holds the cross-shard half of a Link. Field ownership is
// disciplined for the data-race model of the shard scheduler: the
// sender engine touches xout (and the Link's train/frontier/lastDeliver
// bookkeeping) only inside its windows; the destination engine touches
// xin/xArmed only inside its windows; the barrier flush, which moves
// cells from xout to xin, runs while every engine is idle.
type xlink struct {
	grp *sim.ShardGroup
	dst *sim.Engine

	xout []xcell // sender → barrier

	xin    []xcell // barrier → receiver (FIFO; head compacted at flush)
	xinPos int
	xArmed bool // receive-train walker armed on dst
}

// NewCrossLink creates a link whose sender runs on src and whose
// receiver callback runs on dst, two engines of group g; with src ==
// dst it is an ordinary local link (NewLink), and g may be nil. A
// cross-shard link's PropDelay joins the group's lookahead.
// Configurations that draw from the shared engine RNG per cell
// (LossRate, random skew) are refused across shards: those draws
// consume one engine's stream in delivery order, which a partitioned
// topology cannot reproduce. Fault injectors are fine — they draw from
// site-derived streams that are partition-independent by construction.
func NewCrossLink(g *sim.ShardGroup, src, dst *sim.Engine, cfg LinkConfig) *Link {
	if src == nil || dst == nil {
		panic("atm: link needs both engines")
	}
	if src == dst {
		return NewLink(src, cfg)
	}
	if g == nil {
		panic("atm: cross-shard link needs a group")
	}
	if cfg.DrawsEngineRand() {
		panic(fmt.Sprintf("atm: link config (LossRate=%v, Skew=%T) draws from the shared engine RNG per cell and cannot cross shards; run with Shards=1 or move the randomness to a fault injector", cfg.LossRate, cfg.Skew))
	}
	l := NewLink(src, cfg)
	l.x = &xlink{grp: g, dst: dst}
	g.AddLookahead(l.cfg.PropDelay)
	g.OnBarrier(l.flushX)
	return l
}

// NewCrossStripeGroup creates width links from src to dst sharing cfg,
// the striped analogue of NewCrossLink (local links when src == dst).
func NewCrossStripeGroup(g *sim.ShardGroup, src, dst *sim.Engine, width int, cfg LinkConfig) *StripeGroup {
	if width <= 0 {
		panic("atm: stripe width must be positive")
	}
	sg := &StripeGroup{}
	for i := 0; i < width; i++ {
		c := cfg
		c.Index = i
		sg.links = append(sg.links, NewCrossLink(g, src, dst, c))
	}
	return sg
}

// purgeServed drops leading train entries whose transmit-FIFO slot has
// already freed. The local walker does this as a side effect of
// delivering; a cross-shard link delivers elsewhere, so the sender
// prunes at Send to keep the occupancy ring bounded.
func (l *Link) purgeServed(now sim.Time) {
	for l.count > 0 && l.at(0).serStart <= now {
		l.pop()
	}
}

// paceRemote is the paced machine's cross-shard delivery: buffer the
// cell (and its injector-made duplicate) with the stamps the serial
// machine's At calls would have produced — schedAt is the pacing proc's
// current instant for both.
func (l *Link) paceRemote(c Cell, deliverAt sim.Time, duplicate bool) {
	x := l.x
	now := l.eng.Now()
	l.lseq++
	x.xout = append(x.xout, xcell{c: c, deliver: deliverAt, schedAt: now, seq: l.lseq})
	if duplicate {
		l.stats.Duplicated++
		l.lseq++
		x.xout = append(x.xout, xcell{c: c, deliver: deliverAt + 1, schedAt: now, seq: l.lseq})
	}
}

// flushX runs at every window barrier, on the coordinator, with all
// engines idle: move the window's cells to the receive side and make
// sure a delivery event is pending on the destination engine.
func (l *Link) flushX() {
	x := l.x
	if len(x.xout) == 0 {
		return
	}
	if !l.det {
		// Paced: one stamped event per cell, like the serial machine.
		for i := range x.xout {
			e := x.xout[i]
			x.grp.Inject(x.dst, e.deliver, e.schedAt, l.xid, e.seq, xPacedDeliverCB, &xDelivery{l: l, c: e.c})
		}
		x.xout = x.xout[:0]
		return
	}
	// Deterministic: append to the receive train (compacting the served
	// prefix first so the buffer does not creep) and arm the walker.
	if x.xinPos > 0 {
		n := copy(x.xin, x.xin[x.xinPos:])
		x.xin = x.xin[:n]
		x.xinPos = 0
	}
	x.xin = append(x.xin, x.xout...)
	x.xout = x.xout[:0]
	if !x.xArmed {
		x.xArmed = true
		head := &x.xin[x.xinPos]
		x.grp.Inject(x.dst, head.deliver, head.schedAt, l.xid, head.seq, xDeliverCB, l)
	}
}

// xDeliverCB is the cross-shard train walker, running on the
// destination engine: deliver the head cell, then re-arm with the next
// cell's own stamp so every delivery keeps its serial position.
func xDeliverCB(a any) {
	l := a.(*Link)
	x := l.x
	e := &x.xin[x.xinPos]
	c := e.c
	x.xinPos++
	l.stats.Delivered++
	if l.deliver != nil {
		l.deliver(c, l.cfg.Index)
	}
	if x.xinPos < len(x.xin) {
		head := &x.xin[x.xinPos]
		x.dst.InjectStamped(head.deliver, head.schedAt, l.xid, head.seq, xDeliverCB, l)
	} else {
		x.xArmed = false
	}
}

// xDelivery carries one paced cross-shard cell to its delivery event.
type xDelivery struct {
	l *Link
	c Cell
}

func xPacedDeliverCB(a any) {
	d := a.(*xDelivery)
	d.l.stats.Delivered++
	if d.l.deliver != nil {
		d.l.deliver(d.c, d.l.cfg.Index)
	}
}
