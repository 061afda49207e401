package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/adc"
	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/xkernel"
)

// instance is one built system of a workload. The benchmark times
// build (the workload's constructor) and open together as set-up, and
// drive alone as the measured phase; check reads the results and every
// layer's Stats() before shutdown tears the engine down.
type instance interface {
	open() error
	drive()
	check() *outcome
	shutdown()
}

// workload makes its inputs from a seed (untimed) and returns the
// constructor of a fresh system that consumes them. tiny shrinks the
// inputs to a few ops for the benchmark's own tests.
type workload struct {
	name string
	gen  func(seed int64, tiny bool) func() instance
}

var workloads = []workload{
	{"pingpong", genPingpong},
	{"rx_stream", genRxStream},
	{"incast_rdp", genIncast},
	{"tenants_churn", genTenants},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineSeed maps the benchmark seed to the simulation seed: the zero
// value of core.Options.Seed means "default", so zero needs the sentinel.
func engineSeed(seed int64) int64 {
	if seed == 0 {
		return core.ZeroSeed
	}
	return seed
}

// randomBytes returns n bytes from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// stamp writes the op identity (a, b) into the first 8 bytes of payload,
// so a delivery names the op it answers.
func stamp(payload []byte, a, b int) {
	binary.BigEndian.PutUint32(payload[0:4], uint32(a))
	binary.BigEndian.PutUint32(payload[4:8], uint32(b))
}

func unstamp(data []byte) (a, b int, ok bool) {
	if len(data) < 8 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(data[0:4])), int(binary.BigEndian.Uint32(data[4:8])), true
}

// ---------------------------------------------------------------------
// pingpong: the Table 1 apparatus.

// pingRow is one Table 1 configuration with the paper's round-trip time.
type pingRow struct {
	prof    hostsim.Profile
	cache   driver.CachePolicy
	kind    core.ProtoKind
	size    int
	paperUS float64
}

// pingRows are the 1 B and 4 KB columns of Table 1 on both machines,
// with each machine's driver cache policy as the paper ran it.
func pingRows() []pingRow {
	ds, al := hostsim.DEC5000_200(), hostsim.DEC3000_600()
	return []pingRow{
		{ds, driver.CacheLazy, core.ATMRaw, 1, 353},
		{ds, driver.CacheLazy, core.ATMRaw, 4096, 778},
		{ds, driver.CacheLazy, core.UDPIP, 1, 598},
		{ds, driver.CacheLazy, core.UDPIP, 4096, 1011},
		{al, driver.CacheNone, core.ATMRaw, 1, 154},
		{al, driver.CacheNone, core.ATMRaw, 4096, 449},
		{al, driver.CacheNone, core.UDPIP, 1, 316},
		{al, driver.CacheNone, core.UDPIP, 4096, 619},
	}
}

// pingRounds is the number of measured round trips per row; one more
// warm-up round precedes them, as in Table 1.
const pingRounds = 120

type pingTestbed struct {
	row      pingRow
	tb       *core.Testbed
	payloads [][]byte // one per round, warm-up first
	rtts     []time.Duration
	wrong    []int
}

type pingpong struct{ beds []*pingTestbed }

func genPingpong(seed int64, tiny bool) func() instance {
	rounds := pingRounds
	if tiny {
		rounds = 2
	}
	rng := rand.New(rand.NewSource(seed))
	rows := pingRows()
	payloads := make([][][]byte, len(rows))
	for r, row := range rows {
		for i := 0; i <= rounds; i++ {
			payloads[r] = append(payloads[r], randomBytes(rng, row.size))
		}
	}
	return func() instance {
		w := &pingpong{}
		for r, row := range rows {
			tb := core.NewTestbed(core.Options{Profile: row.prof, Driver: driver.Config{Cache: row.cache}, Seed: engineSeed(seed)})
			w.beds = append(w.beds, &pingTestbed{row: row, tb: tb, payloads: payloads[r]})
		}
		return w
	}
}

func (w *pingpong) open() error {
	for _, b := range w.beds {
		if err := b.open(); err != nil {
			return err
		}
	}
	return nil
}

// open wires a closed ping-pong loop: node B echoes every message back
// on the reverse session, node A checks each reply byte for byte and
// sends the next round only after it.
func (b *pingTestbed) open() error {
	ftx, frx, err := b.tb.OpenPair(0, 1, b.row.kind)
	if err != nil {
		return err
	}
	rtx, rrx, err := b.tb.OpenPair(1, 0, b.row.kind)
	if err != nil {
		return err
	}
	A, B := b.tb.A, b.tb.B
	frx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, err := m.Bytes()
		if err != nil {
			return
		}
		reply, err := msg.FromBytes(B.Host.Kernel, data)
		if err != nil {
			return
		}
		if err := rtx.Push(p, reply); err == nil {
			B.Drv.Flush(p)
		}
		freeMessage(reply)
	})
	var reply []byte
	gotReply := sim.NewCond(b.tb.Eng)
	rrx.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, err := m.Bytes()
		if err != nil {
			data = []byte{}
		}
		reply = data
		gotReply.Broadcast()
	})
	b.tb.Go(0, "ping", func(p *sim.Proc) {
		for i, payload := range b.payloads {
			m, err := msg.FromBytes(A.Host.Kernel, payload)
			if err != nil {
				return
			}
			reply = nil
			start := p.Now()
			if err := ftx.Push(p, m); err != nil {
				freeMessage(m)
				return
			}
			for reply == nil {
				gotReply.Wait(p)
			}
			b.rtts = append(b.rtts, p.Now().Sub(start))
			if !bytes.Equal(reply, payload) {
				b.wrong = append(b.wrong, i)
			}
			A.Drv.Flush(p)
			freeMessage(m)
		}
	})
	return nil
}

func (w *pingpong) drive() {
	for _, b := range w.beds {
		b.tb.Run()
	}
}

func (w *pingpong) check() *outcome {
	o := &outcome{}
	t := &topo{}
	h := sha256.New()
	var errSum, rttSum float64
	for r, b := range w.beds {
		name := fmt.Sprintf("%s %s %dB", b.row.prof.Name, b.row.kind, b.row.size)
		o.ops += len(b.payloads)
		for _, i := range b.wrong {
			o.fail("pingpong %s round %d: reply differs from the message sent", name, i)
		}
		if n := len(b.rtts); n < len(b.payloads) {
			o.fail("pingpong %s: stalled after %d of %d rounds", name, n, len(b.payloads))
			o.failed += len(b.payloads) - n - 1
		}
		mean := 0.0
		if len(b.rtts) > 1 {
			var sum time.Duration
			for _, d := range b.rtts[1:] { // round 0 is the warm-up
				sum += d
			}
			mean = float64(sum) / float64(len(b.rtts)-1) / 1e3
		}
		fmt.Fprintf(h, "row %d %s rtts %v\n", r, name, b.rtts)
		o.notes = append(o.notes, fmt.Sprintf("pingpong %s: sim %.1f us, paper %.0f us", name, mean, b.row.paperUS))
		rttSum += mean
		errSum += math.Abs(mean/b.row.paperUS - 1)
		o.simElapsed += time.Duration(b.tb.Now())
		t.add(b.tb.Cluster)
		t.links = append(t.links, b.tb.AB, b.tb.BA)
		t.servers = append(t.servers, b.tb.B.Host)
	}
	o.simRTTus = rttSum / float64(len(w.beds))
	o.paperErrPct = 100 * errSum / float64(len(w.beds))
	t.finish(o, h)
	return o
}

func (w *pingpong) shutdown() {
	for _, b := range w.beds {
		b.tb.Shutdown()
	}
}

// freeMessage releases the single kernel buffer msg.FromBytes allocated.
func freeMessage(m *msg.Message) {
	if fr := m.Fragments(); len(fr) > 0 {
		_ = fr[0].Space.Free(fr[0].VA, fr[0].Len) // freeing our own allocation
	}
}

// add lists every node of a core cluster in the topology.
func (t *topo) add(cl *core.Cluster) {
	if cl.Eng != nil {
		t.engines = append(t.engines, cl.Eng)
	}
	for _, n := range cl.Nodes {
		t.hosts = append(t.hosts, n.Host)
		t.boards = append(t.boards, n.Board)
		t.drivers = append(t.drivers, n.Drv)
		t.rdps = append(t.rdps, n.RDP)
	}
	if cl.Fabric != nil {
		t.sw = cl.Fabric
	}
}

// ---------------------------------------------------------------------
// rx_stream: the Figure 3 apparatus.

const (
	rxMessages = 100
	rxBytes    = 64 * 1024
	rxVCI      = atm.VCI(101)
	// paperLinkMbps is the paper's 516 Mbps: the striped channel's data
	// bandwidth (§4), which bounds Figure 3's double-cell DMA plateau on
	// the DEC 3000/600. The workloads without a paper apparatus report
	// their goodput's distance from it as paper_err_pct.
	paperLinkMbps = 516
)

type rxStream struct {
	tb        *core.Testbed
	payloads  [][]byte
	delivered []int
	corrupt   int
	first     sim.Time
	last      sim.Time
	received  int
	pdus      int   // IP fragments generated
	generated int64 // cells generated
}

func genRxStream(seed int64, tiny bool) func() instance {
	n := rxMessages
	if tiny {
		n = 3
	}
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = randomBytes(rng, rxBytes)
		stamp(payloads[i], i, n)
	}
	return func() instance {
		tb := core.NewTestbed(core.Options{
			Profile: hostsim.DEC3000_600(),
			Board:   board.Config{RxDMA: board.DoubleCell},
			Driver:  driver.Config{Cache: driver.CacheNone},
			Seed:    engineSeed(seed),
		})
		return &rxStream{tb: tb, payloads: payloads, delivered: make([]int, n)}
	}
}

// open binds host B's UDP session and programs B's board to generate
// every message's IP fragments, each message with its own IP ident.
func (w *rxStream) open() error {
	A, B := w.tb.A, w.tb.B
	sess, err := B.UDP.Open(proto.UDPOpen{Remote: A.Addr, VCI: rxVCI, SrcPort: 2, DstPort: 1})
	if err != nil {
		return err
	}
	var frags [][]byte
	for i, pl := range w.payloads {
		frags = append(frags, proto.BuildUDPFragments(pl, 1, 2, A.Addr, B.Addr, w.tb.Opt.MTU, false, uint32(1000+i))...)
	}
	w.pdus = len(frags)
	for _, f := range frags {
		w.generated += int64(atm.CellsFor(len(f)))
	}
	sess.SetHandler(func(p *sim.Proc, m *msg.Message) {
		data, err := m.Bytes()
		i, _, ok := unstamp(data)
		if err != nil || !ok || i < 0 || i >= len(w.payloads) || !bytes.Equal(data, w.payloads[i]) {
			w.corrupt++
			return
		}
		w.delivered[i]++
		w.received++
		if w.received == 1 {
			w.first = p.Now()
		}
		w.last = p.Now()
	})
	B.Board.StartFictitious(rxVCI, frags, 0, 1)
	return nil
}

func (w *rxStream) drive() {
	// The horizon allows the slowest plausible rate, ~20 Mbps.
	n := time.Duration(len(w.payloads))
	w.tb.RunUntil(w.tb.Now().Add(n * (rxBytes*8*50*time.Nanosecond + 10*time.Millisecond)))
	w.tb.B.Board.StopFictitious()
	w.tb.Run()
}

func (w *rxStream) check() *outcome {
	// Message 0 is the apparatus's warm-up, as in core's Figure 3 run:
	// the generator starts with host B's driver, and the warm-up's first
	// fragment can arrive before any receive buffer is posted. It is not
	// an op, but its loss must show as a counted board drop.
	o := &outcome{ops: len(w.payloads) - 1}
	h := sha256.New()
	bs := w.tb.B.Board.Stats()
	for i, d := range w.delivered {
		switch {
		case d == 0 && i == 0:
			o.expect(bs.PDUsDropped > 0, "rx_stream warm-up message lost without a counted board drop")
		case d == 0:
			o.fail("rx_stream message %d: not delivered by the horizon", i)
		case d > 1:
			o.fail("rx_stream message %d: delivered %d times", i, d)
		}
	}
	for i := 0; i < w.corrupt; i++ {
		o.fail("rx_stream: corrupt delivery %d", i+1)
	}
	o.expect(int64(w.pdus) == bs.PDUsRx+bs.PDUsDropped+bs.PDUsTimedOut+bs.PDUsCRCDropped,
		"rx_stream: generated PDUs %d != received %d + dropped %d + timed out %d + CRC-dropped %d",
		w.pdus, bs.PDUsRx, bs.PDUsDropped, bs.PDUsTimedOut, bs.PDUsCRCDropped)
	if w.received > 1 {
		o.goodputMbps = float64(int64(w.received-1)*rxBytes*8) / w.last.Sub(w.first).Seconds() / 1e6
	}
	o.paperErrPct = 100 * math.Abs(o.goodputMbps/paperLinkMbps-1)
	o.simElapsed = time.Duration(w.tb.Now())
	fmt.Fprintf(h, "delivered %v corrupt %d first %d last %d\n", w.delivered, w.corrupt, w.first, w.last)
	t := &topo{generated: w.generated, servers: []*hostsim.Host{w.tb.B.Host}}
	t.add(w.tb.Cluster)
	t.links = append(t.links, w.tb.AB, w.tb.BA)
	t.finish(o, h)
	return o
}

func (w *rxStream) shutdown() { w.tb.Shutdown() }

// ---------------------------------------------------------------------
// incast_rdp: unpaced 8:1 fan-in over adaptive RDP through the switch.

const (
	incastClients  = 8
	incastMessages = 12
	incastBytes    = 16 * 1024
)

type incast struct {
	cl        *core.Cluster
	payloads  [][][]byte // [client][message]
	delivered [][]int
	corrupt   int
	pushed    []int
	txs, rxs  []xkernel.Session
	first     sim.Time
	last      sim.Time
	received  int
}

func genIncast(seed int64, tiny bool) func() instance {
	msgs := incastMessages
	if tiny {
		msgs = 2
	}
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][][]byte, incastClients)
	for c := range payloads {
		for m := 0; m < msgs; m++ {
			pl := randomBytes(rng, incastBytes)
			stamp(pl, c, m)
			payloads[c] = append(payloads[c], pl)
		}
	}
	return func() instance {
		delivered := make([][]int, incastClients)
		for c := range delivered {
			delivered[c] = make([]int, msgs)
		}
		// Overload aborts PDUs mid-stream, so reassembly must resync
		// (as core.RunIncastRDP configures it); the switch marks ECN past
		// 64 queued cells, as osiris-bench's collapse regime runs it.
		opt := core.Options{Board: board.Config{ReasmResync: true}, FabricMarkThreshold: 64, Seed: engineSeed(seed)}
		return &incast{cl: core.NewCluster(opt, incastClients+1), payloads: payloads, delivered: delivered, pushed: make([]int, incastClients)}
	}
}

func (w *incast) open() error {
	for c := range w.payloads {
		tx, rx, err := w.cl.OpenPairRDP(c+1, 0, proto.RDPOpen{Adaptive: true})
		if err != nil {
			return err
		}
		w.txs, w.rxs = append(w.txs, tx), append(w.rxs, rx)
		rx.SetHandler(func(p *sim.Proc, m *msg.Message) {
			data, err := m.Bytes()
			client, i, ok := unstamp(data)
			if err != nil || !ok || client != c || i < 0 || i >= len(w.payloads[c]) || !bytes.Equal(data, w.payloads[c][i]) {
				w.corrupt++
				return
			}
			w.delivered[c][i]++
			w.received++
			if w.received == 1 {
				w.first = p.Now()
			}
			w.last = p.Now()
		})
	}
	return nil
}

func (w *incast) drive() {
	for c := range w.payloads {
		nd, tx := w.cl.Nodes[c+1], w.txs[c]
		w.cl.Go(c+1, fmt.Sprintf("incast-client-%d", c), func(p *sim.Proc) {
			for _, pl := range w.payloads[c] {
				m, err := msg.FromBytes(nd.Host.Kernel, pl)
				if err != nil {
					return
				}
				if err := tx.Push(p, m); err != nil {
					freeMessage(m)
					return
				}
				nd.Drv.Flush(p)
				freeMessage(m)
				w.pushed[c]++
			}
			tx.(interface{ WaitAcked(*sim.Proc) }).WaitAcked(p)
		})
	}
	// Aggregate drain at 10 Mbps plus recovery headroom, as
	// core.RunIncastRDP bounds it; then close so retransmit timers die.
	total := time.Duration(incastClients * len(w.payloads[0]) * incastBytes)
	w.cl.RunUntil(w.cl.Now().Add(total*8*100*time.Nanosecond + 500*time.Millisecond))
	for c := range w.txs {
		w.txs[c].Close()
		w.rxs[c].Close()
	}
	w.cl.Run()
}

func (w *incast) check() *outcome {
	o := &outcome{}
	h := sha256.New()
	for c, ds := range w.delivered {
		o.ops += len(ds)
		for i, d := range ds {
			switch {
			case d == 0:
				o.fail("incast_rdp client %d message %d: not delivered by the horizon (pushed %d)", c, i, w.pushed[c])
			case d > 1:
				o.fail("incast_rdp client %d message %d: delivered %d times", c, i, d)
			}
		}
	}
	for i := 0; i < w.corrupt; i++ {
		o.fail("incast_rdp: corrupt delivery %d", i+1)
	}
	if w.received > 1 {
		o.goodputMbps = float64(int64(w.received)*incastBytes*8) / w.last.Sub(w.first).Seconds() / 1e6
	}
	o.paperErrPct = 100 * math.Abs(o.goodputMbps/paperLinkMbps-1)
	o.simElapsed = time.Duration(w.cl.Now())
	fmt.Fprintf(h, "delivered %v pushed %v corrupt %d first %d last %d\n", w.delivered, w.pushed, w.corrupt, w.first, w.last)
	t := &topo{servers: []*hostsim.Host{w.cl.Nodes[0].Host}}
	t.add(w.cl)
	t.finish(o, h)
	return o
}

func (w *incast) shutdown() { w.cl.Shutdown() }

// ---------------------------------------------------------------------
// tenants_churn: many virtual ADCs plus churn over a small fbuf budget.

const (
	tenantCount     = 256
	tenantPDUs      = 4
	tenantChurn     = 256
	tenantFbufPaths = 64
	tenantPDUBytes  = 2048
	tenantBaseVCI   = 100
	churnBaseVCI    = 40000
)

type tenantsSize struct{ tenants, pdus, churn, paths int }

type tenants struct {
	size       tenantsSize
	e          *sim.Engine
	hA, hB     *hostsim.Host
	bA, bB     *board.Board
	ab, ba     *atm.StripeGroup
	mgA, mgB   *adc.Manager
	fbm        *fbuf.Manager
	drvDom     *fbuf.Domain
	appDoms    []*fbuf.Domain
	appA, appB *adc.AppDomain
	txADC      []*adc.ADC
	drivers    []*driver.Driver // the steady tenants' (mux) channel drivers
	payloads   [][]byte         // per tenant, then per churn cycle
	delivered  [][]int          // steady tenants: [tenant][pdu]
	churnGot   []int
	sent       []int
	churnSent  int
	corrupt    int
	errs       []string
	cycle      time.Duration
	first      sim.Time
	last       sim.Time
	received   int
}

var tenantCfg = adc.Config{Virtual: true, BufBytes: 4096, BufCount: 16, ExtraPages: 4}

func genTenants(seed int64, tiny bool) func() instance {
	sz := tenantsSize{tenantCount, tenantPDUs, tenantChurn, tenantFbufPaths}
	if tiny {
		sz = tenantsSize{4, 2, 4, 2}
	}
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, sz.tenants+sz.churn)
	for i := range payloads {
		payloads[i] = randomBytes(rng, tenantPDUBytes)
	}
	return func() instance {
		// Each tenant pins a four-page transmit run per host, plus muxes,
		// fbufs and slack, as core.RunTenants sizes memory.
		prof := hostsim.DEC5000_200()
		pages := 2048 + 6*sz.tenants
		e := sim.NewEngine(engineSeed(seed))
		w := &tenants{size: sz, e: e, payloads: payloads, churnGot: make([]int, sz.churn), sent: make([]int, sz.tenants)}
		w.hA, w.hB = hostsim.New(e, prof, pages), hostsim.New(e, prof, pages)
		w.bA = board.New(e, w.hA, board.Config{Name: "tenantsA"})
		w.bB = board.New(e, w.hB, board.Config{Name: "tenantsB"})
		w.ab = atm.NewStripeGroup(e, atm.StripeWidth, atm.LinkConfig{})
		w.ba = atm.NewStripeGroup(e, atm.StripeWidth, atm.LinkConfig{})
		w.bA.AttachTxLinks(w.ab.Links())
		w.bB.AttachRxLinks(w.ab)
		w.bB.AttachTxLinks(w.ba.Links())
		w.bA.AttachRxLinks(w.ba)
		w.mgA, w.mgB = adc.NewManager(w.hA, w.bA), adc.NewManager(w.hB, w.bB)
		w.fbm = fbuf.NewManager(w.hB, sz.paths)
		w.drvDom = fbuf.NewDomain(w.hB, "tenants-drv")
		for i := 0; i < 4; i++ {
			w.appDoms = append(w.appDoms, fbuf.NewDomain(w.hB, fmt.Sprintf("tenants-app%d", i)))
		}
		w.appA, w.appB = adc.NewAppDomain(w.hA, "tenantsA-app"), adc.NewAppDomain(w.hB, "tenantsB-app")
		for i := 0; i < sz.tenants; i++ {
			w.delivered = append(w.delivered, make([]int, sz.pdus))
		}
		// Pace the steady senders below the receive path's service rate,
		// as core.RunTenants does.
		w.cycle = time.Duration(tenantPDUBytes*sz.tenants) * 40 * time.Nanosecond
		if w.cycle < 50*time.Microsecond {
			w.cycle = 50 * time.Microsecond
		}
		return w
	}
}

func (w *tenants) fail(err error) {
	w.errs = append(w.errs, err.Error())
}

// observe notes one verified delivery.
func (w *tenants) observe(p *sim.Proc) {
	w.received++
	if w.received == 1 {
		w.first = p.Now()
	}
	w.last = p.Now()
}

// receive is the per-delivery work of every tenant path: one fbuf
// allocation on the path (a hit while the path is cached, a miss after
// churn evicted it), then a byte-for-byte check of the PDU.
func (w *tenants) receive(p *sim.Proc, vci atm.VCI, m *msg.Message, op int) (pdu int, ok bool) {
	if fb, err := w.fbm.Alloc(p, vci, w.drvDom, tenantPDUBytes); err == nil {
		w.fbm.Free(fb)
	}
	data, err := m.Bytes()
	id, pdu, stamped := unstamp(data)
	if err != nil || !stamped || id != op || len(data) != tenantPDUBytes || !bytes.Equal(data[8:], w.payloads[op][8:]) {
		w.corrupt++
		return 0, false
	}
	return pdu, true
}

// open opens every steady tenant's ADC pair, fbuf path and receive
// handler, running the engine until the kernel work of the opens is done.
func (w *tenants) open() error {
	w.e.Go("tenants-open", func(p *sim.Proc) {
		for i := 0; i < w.size.tenants; i++ {
			vci := atm.VCI(tenantBaseVCI + i)
			a, err := w.mgA.Open(p, w.appA, []atm.VCI{vci}, tenantCfg)
			if err != nil {
				w.fail(err)
				return
			}
			b, err := w.mgB.Open(p, w.appB, []atm.VCI{vci}, tenantCfg)
			if err != nil {
				w.fail(err)
				return
			}
			if err := w.fbm.DefinePath(p, vci, []*fbuf.Domain{w.drvDom, w.appDoms[i%len(w.appDoms)]}, 2, tenantPDUBytes); err != nil {
				w.fail(err)
				return
			}
			b.Driver().OpenPath(vci, func(hp *sim.Proc, m *msg.Message) {
				if n, ok := w.receive(hp, vci, m, i); ok && n >= 0 && n < w.size.pdus {
					w.delivered[i][n]++
					w.observe(hp)
				} else if ok {
					w.corrupt++
				}
			})
			w.txADC = append(w.txADC, a)
			for _, d := range []*driver.Driver{a.Driver(), b.Driver()} {
				if !slices.Contains(w.drivers, d) {
					w.drivers = append(w.drivers, d)
				}
			}
		}
	})
	w.e.Run()
	if len(w.errs) > 0 {
		return fmt.Errorf("tenants_churn open: %s", w.errs[0])
	}
	return nil
}

// send pushes one stamped PDU of op's payload through an ADC's transmit
// buffer and waits until the transmission completes.
func (w *tenants) send(p *sim.Proc, a *adc.ADC, pt *driver.Path, op, pdu int) error {
	va, size, err := a.TxBuffer(0)
	if err != nil || size < tenantPDUBytes {
		return fmt.Errorf("tx buffer of %d bytes: %v", size, err)
	}
	var id [8]byte
	stamp(id[:], op, pdu)
	if err := w.appA.Space.WriteVirt(va, w.payloads[op]); err != nil {
		return err
	}
	if err := w.appA.Space.WriteVirt(va, id[:]); err != nil {
		return err
	}
	if err := a.Driver().Send(p, pt, msg.New(msg.Fragment{Space: w.appA.Space, VA: va, Len: tenantPDUBytes}), nil); err != nil {
		return err
	}
	a.Driver().Flush(p)
	return nil
}

func (w *tenants) drive() {
	for i, a := range w.txADC {
		vci := atm.VCI(tenantBaseVCI + i)
		w.e.Go(fmt.Sprintf("tenant-%d", i), func(p *sim.Proc) {
			// Spread the first wave over one pacing cycle.
			p.Sleep(time.Duration(i+1) * w.cycle / time.Duration(len(w.txADC)))
			pt := a.Driver().OpenPath(vci, nil)
			for n := 0; n < w.size.pdus; n++ {
				if err := w.send(p, a, pt, i, n); err != nil {
					w.fail(err)
					return
				}
				w.sent[i]++
				if n < w.size.pdus-1 {
					p.Sleep(w.cycle)
				}
			}
		})
	}
	if w.size.churn > 0 {
		w.e.Go("tenant-churn", w.churn)
	}
	horizon := 50*time.Millisecond + time.Duration(w.size.churn)*2*time.Millisecond +
		time.Duration(w.size.pdus)*w.cycle +
		time.Duration((w.size.tenants*w.size.pdus+w.size.churn)*tenantPDUBytes)*100*time.Nanosecond
	w.e.RunUntil(w.e.Now().Add(horizon))
}

// churn runs open → send one PDU → close cycles on fresh VCIs, each
// waiting (boundedly) for its delivery before closing.
func (w *tenants) churn(p *sim.Proc) {
	for j := 0; j < w.size.churn; j++ {
		op := w.size.tenants + j
		vci := atm.VCI(churnBaseVCI + j)
		a, err := w.mgA.Open(p, w.appA, []atm.VCI{vci}, tenantCfg)
		if err != nil {
			w.fail(err)
			return
		}
		b, err := w.mgB.Open(p, w.appB, []atm.VCI{vci}, tenantCfg)
		if err != nil {
			w.mgA.Close(a)
			w.fail(err)
			return
		}
		if err := w.fbm.DefinePath(p, vci, []*fbuf.Domain{w.drvDom, w.appDoms[j%len(w.appDoms)]}, 1, tenantPDUBytes); err != nil {
			w.fail(err)
			return
		}
		rpt := b.Driver().OpenPath(vci, func(hp *sim.Proc, m *msg.Message) {
			if n, ok := w.receive(hp, vci, m, op); ok && n == 0 {
				w.churnGot[j]++
				w.observe(hp)
			} else if ok {
				w.corrupt++
			}
		})
		spt := a.Driver().OpenPath(vci, nil)
		if err := w.send(p, a, spt, op, 0); err != nil {
			w.fail(err)
			return
		}
		w.churnSent++
		deadline := p.Now().Add(5 * time.Millisecond)
		for w.churnGot[j] == 0 && p.Now() < deadline {
			p.Sleep(20 * time.Microsecond)
		}
		a.Driver().ClosePath(spt)
		b.Driver().ClosePath(rpt)
		if w.fbm.PathDefined(vci) {
			if err := w.fbm.UndefinePath(p, vci); err != nil {
				w.fail(err)
				return
			}
		}
		w.mgB.Close(b)
		w.mgA.Close(a)
	}
}

func (w *tenants) check() *outcome {
	o := &outcome{ops: w.size.tenants*w.size.pdus + w.size.churn}
	h := sha256.New()
	for i, ds := range w.delivered {
		for n, d := range ds {
			switch {
			case d == 0:
				o.fail("tenants_churn tenant %d PDU %d: not delivered by the horizon (sent %d)", i, n, w.sent[i])
			case d > 1:
				o.fail("tenants_churn tenant %d PDU %d: delivered %d times", i, n, d)
			}
		}
	}
	for j, d := range w.churnGot {
		switch {
		case d == 0:
			o.fail("tenants_churn churn cycle %d: not delivered (cycles sent %d)", j, w.churnSent)
		case d > 1:
			o.fail("tenants_churn churn cycle %d: delivered %d times", j, d)
		}
	}
	for i := 0; i < w.corrupt; i++ {
		o.fail("tenants_churn: corrupt delivery %d", i+1)
	}
	for _, e := range w.errs {
		o.fail("tenants_churn: %s", e)
	}
	if w.received > 1 {
		o.goodputMbps = float64(int64(w.received)*tenantPDUBytes*8) / w.last.Sub(w.first).Seconds() / 1e6
	}
	o.paperErrPct = 100 * math.Abs(o.goodputMbps/paperLinkMbps-1)
	o.simElapsed = time.Duration(w.e.Now())
	fmt.Fprintf(h, "delivered %v churn %v sent %v corrupt %d first %d last %d\n", w.delivered, w.churnGot, w.sent, w.corrupt, w.first, w.last)
	t := &topo{
		engines: []*sim.Engine{w.e},
		hosts:   []*hostsim.Host{w.hA, w.hB},
		boards:  []*board.Board{w.bA, w.bB},
		drivers: w.drivers,
		links:   []*atm.StripeGroup{w.ab, w.ba},
		fbm:     w.fbm,
		adcs:    []*adc.Manager{w.mgA, w.mgB},
		servers: []*hostsim.Host{w.hB},
	}
	t.finish(o, h)
	return o
}

func (w *tenants) shutdown() { w.e.Shutdown() }
