package nserver

import (
	"fmt"
	"strings"
	"testing"
)

// TestLifecycleGateClaimRelease steps both gates of the lifecycle table
// through one drain: the first wakeup claims the gate, a second during
// the pass is absorbed but makes the release go around once, and the
// gate then re-arms for the next wakeup.
func TestLifecycleGateClaimRelease(t *testing.T) {
	for _, g := range []struct {
		name           string
		claim, release edge
	}{{"read", edgeReadable, edgeRelease}, {"pump", edgePark, edgePumpDone}} {
		var c Conn
		for i, want := range []struct {
			e   edge
			act action
		}{
			{g.claim, actRun},     // the first wakeup claims
			{g.claim, 0},          // a wakeup mid-pass is absorbed...
			{g.claim, 0},          // ...however many land
			{g.release, actAgain}, // ...and the owner goes around
			{g.release, 0},        // no wakeup this pass: re-armed
			{g.claim, actRun},     // the next wakeup claims again
		} {
			if act := c.step(want.e); act != want.act {
				t.Fatalf("%s gate, step %d (%s): action %s, want %s",
					g.name, i, edgeNames[want.e], actionString(act), actionString(want.act))
			}
		}
		if c.closeState() != lifeOpen {
			t.Fatalf("%s gate steps moved the close field to %d", g.name, c.closeState())
		}
	}

	// The close field: a deferred close, then one teardown, then one
	// finalize with all three of its actions.
	var c Conn
	for i, want := range []struct {
		e   edge
		act action
	}{
		{edgeClose, actDefer},
		{edgeTeardown, actTeardown},
		{edgeTeardown, 0},
		{edgeClose, 0},
		{edgeFinalize, actReleaseInbox | actFreeOutbound | actDetach},
		{edgeFinalize, 0},
	} {
		if act := c.step(want.e); act != want.act {
			t.Fatalf("close field, step %d (%s): action %s, want %s",
				i, edgeNames[want.e], actionString(act), actionString(want.act))
		}
	}
}

// The explorer runs a model of one connection's concurrent actors over
// a lifecycle table, breadth first through every interleaving of their
// steps, and checks the table's invariants in every state it reaches.
// Each model step is one atomic action of the runtime: a lifecycle edge
// (a CAS on the word), or one section under inMu or writeMu. The actors:
//
//   - the reader reads chunks, queues each on the inbox (pushInbox) and
//     wakes the connection, either claiming the read gate and draining
//     inline (the fast path, which may punt the rest of its drain to an
//     event worker) or emitting a PollReady; after the last chunk it may
//     read the peer's EOF, which it queues and wakes for too;
//   - event workers take PollReady (claim and drain), the punted drain's
//     continuation and CloseReady (finalize) from the shard's event queue;
//   - the drain loop pops chunks, handles them in order, closes the
//     connection when it finds the queued EOF, and releases the gate;
//   - a sender sends replies (the last may be marked Last): each either
//     leaves in one flush or parks, and a park claims the pump gate;
//   - the write pump flushes a parked queue with writeMu dropped across
//     its blocking write, which may fail, and releases the pump gate;
//   - a closer calls Close, or tears the connection down with an error.
//
// In every state: at most one read owner (an actor in the drain loop or
// a queued punt continuation), at most one pump, chunks handled in read
// order, every chunk handled before the EOF behind it closes the
// connection, no edge the table forbids, no reply accepted after
// teardown or after a Last reply left, finalize at most once and only
// after teardown. In every final state: each chunk lease and each accepted
// reply released exactly once, both gates armed and no actor stuck, and
// either the connection finalized once, or no wakeup lost — no chunk left
// queued, no reply left parked, no Close left waiting and no EOF left
// unanswered. A violation fails with the shortest edge sequence that
// reaches it.

type exploreConfig struct {
	name    string
	chunks  uint8 // chunks the reader reads
	eof     bool  // the peer's EOF follows the last chunk
	workers int   // event workers (at most two)
	replies uint8 // replies the sender sends
	last    bool  // the sender's final reply is marked Last
	closer  int   // 0: none, 1: Close, 2: teardown with an error
	depth   int   // exploration depth bound, in steps
}

// Actors, by index into mState.actors.
const (
	aReader = iota
	aSender
	aCloser
	aPump0
	aPump1
	aWorker0
	numActors = aWorker0 + 2
)

var actorNames = [numActors]string{"reader", "sender", "closer", "pump", "pump#2", "worker0", "worker1"}

// Program counters. pcIdle is a finished actor, an idle worker or an
// unused pump slot.
const (
	pcIdle uint8 = iota
	pcRead
	pcPush
	pcWake
	pcEOF
	pcCheck // the drain loop: pcCheck through pcRelease
	pcLoadEOF
	pcPop
	pcHandle
	pcClose
	pcRelease
	pcFinalize
	pcFinInbox
	pcFinOutbound
	pcFinDetach
	pcSend
	pcFlush
	pcPark
	pcPumpLock
	pcPumpWrite
	pcPumpDone
	pcPumpRelease
	pcCloser
)

// Events on the shard's queue.
const (
	evPoll uint8 = iota + 1
	evClose
	evResume
)

var eventNames = [...]string{evPoll: "PollReady", evClose: "CloseReady", evResume: "punted drain"}

type mActor struct {
	pc    uint8
	after uint8  // where a drain returns to
	chunk uint8  // the chunk held
	act   action // finalize's actions
	fast  bool   // a fast-path drain, which may punt
	eof   bool   // the EOF bit this drain pass loaded
	ok    bool   // the pump's write succeeded
}

type mItem struct {
	id           uint8
	parked, last bool
}

type mState struct {
	word    uint32
	actors  [numActors]mActor
	events  [8]uint8
	nEvents uint8

	read           uint8 // chunks the reader has read
	inHead, inTail uint8 // the inbox holds chunks inHead+1 .. inTail
	handled        uint8 // the last chunk handled
	leases         uint8 // bit i-1: chunk i's lease released

	outq     [4]mItem
	nOut     uint8
	tried    uint8 // replies the sender has tried
	accepted uint8 // bit i-1: reply i accepted
	settled  uint8 // bit i-1: reply i sent or released unsent
	wmu      uint8 // writeMu's holder, plus one; 0 when free
	pumping  bool

	tornDown  bool // ground truth: teardown ran
	lastOut   bool // ground truth: a Last reply left
	finalized uint8
}

// mStep is one model step in progress: the state it produces, the
// edges it stepped and the first violation it found.
type mStep struct {
	table *lifeTable
	s     mState
	edges []string
	viol  string
}

func (m *mStep) fail(format string, args ...any) {
	if m.viol == "" {
		m.viol = fmt.Sprintf(format, args...)
	}
}

func (m *mStep) step(e edge) action {
	next, act := m.table.apply(m.s.word, e)
	m.s.word = next
	m.edges = append(m.edges, edgeNames[e]+"→"+actionString(act))
	if act&actBad != 0 {
		m.fail("edge %s taken from a state the table forbids", edgeNames[e])
	}
	return act
}

func (m *mStep) closeState() uint32 { return m.s.word >> closeShift & 3 }

func (m *mStep) push(ev uint8) {
	if int(m.s.nEvents) == len(m.s.events) {
		m.fail("event queue overflow")
		return
	}
	m.s.events[m.s.nEvents] = ev
	m.s.nEvents++
}

func (m *mStep) releaseChunk(id uint8) {
	if m.s.leases&(1<<(id-1)) != 0 {
		m.fail("chunk %d's lease released twice", id)
	}
	m.s.leases |= 1 << (id - 1)
}

func (m *mStep) settle(id uint8) {
	if m.s.settled&(1<<(id-1)) != 0 {
		m.fail("reply %d released twice", id)
	}
	m.s.settled |= 1 << (id - 1)
}

// teardown is Conn.teardown: one step under inMu.
func (m *mStep) teardown() {
	if m.step(edgeTeardown)&actTeardown != 0 {
		m.s.tornDown = true
		m.push(evClose)
	}
}

// closeConn is Conn.Close, under writeMu.
func (m *mStep) closeConn() {
	if m.s.nOut > 0 && m.step(edgeClose)&actDefer != 0 {
		return
	}
	m.teardown()
}

// flushAll is a flush that writes the whole queue; once a Last reply
// has left, the rest is released unsent and the close is due.
func (m *mStep) flushAll() {
	for i := uint8(0); i < m.s.nOut; i++ {
		m.settle(m.s.outq[i].id)
		if m.s.outq[i].last {
			m.s.lastOut = true
			for _, it := range m.s.outq[i+1 : m.s.nOut] {
				m.settle(it.id)
			}
			m.step(edgeClose)
			break
		}
	}
	m.s.nOut = 0
	m.closeIfDrained()
}

func (m *mStep) closeIfDrained() {
	if m.s.nOut == 0 && m.closeState() == lifeClosing {
		m.teardown()
	}
}

// freeOutboundLocked releases the queue unless the pump is mid-write.
func (m *mStep) freeOutboundLocked() {
	if m.s.pumping {
		return
	}
	for _, it := range m.s.outq[:m.s.nOut] {
		m.settle(it.id)
	}
	m.s.nOut = 0
}

func (m *mStep) queueParked() bool { return m.s.nOut > 0 && m.s.outq[0].parked }

// pumpTail is the end of every pump pass (pumpQueueLocked).
func (m *mStep) pumpTail() {
	switch {
	case m.closeState() >= lifeClosed:
		m.freeOutboundLocked()
	case !m.queueParked():
		m.closeIfDrained()
	}
}

func (m *mStep) startPump() {
	for _, p := range []int{aPump0, aPump1} {
		if m.s.actors[p].pc == pcIdle {
			m.s.actors[p] = mActor{pc: pcPumpLock}
			return
		}
	}
	m.fail("a third pump started")
}

type mMove struct {
	label string
	s     mState
	viol  string
}

type explorer struct {
	cfg   exploreConfig
	table *lifeTable
}

// moves returns every step an actor can take from s.
func (x *explorer) moves(s mState) []mMove {
	var out []mMove
	try := func(me int, what string, f func(m *mStep)) {
		m := &mStep{table: x.table, s: s}
		f(m)
		label := actorNames[me] + ": " + what
		if len(m.edges) > 0 {
			label += " [" + strings.Join(m.edges, ", ") + "]"
		}
		if m.viol == "" {
			m.viol = x.invariants(&m.s)
		}
		out = append(out, mMove{label, m.s, m.viol})
	}
	wmuFree := func(me int) bool { return s.wmu == 0 || int(s.wmu) == me+1 }
	for me := 0; me < numActors; me++ {
		a := s.actors[me]
		switch a.pc {
		case pcIdle:
			if me >= aWorker0 && me < aWorker0+x.cfg.workers && s.nEvents > 0 {
				x.workerTake(me, s, try)
			}
		case pcRead:
			try(me, "read", func(m *mStep) {
				r := &m.s.actors[me]
				switch {
				case m.closeState() >= lifeClosed:
					r.pc = pcIdle
				case m.s.read < x.cfg.chunks:
					m.s.read++
					r.chunk, r.pc = m.s.read, pcPush
				case x.cfg.eof:
					r.pc = pcEOF
				default:
					r.pc = pcIdle
				}
			})
		case pcPush:
			try(me, fmt.Sprintf("pushInbox chunk %d", a.chunk), func(m *mStep) {
				r := &m.s.actors[me]
				if m.closeState() == lifeFinalized {
					m.releaseChunk(r.chunk)
					r.pc = pcRead
					return
				}
				m.s.inTail++
				r.pc, r.after, r.chunk = pcWake, pcRead, 0
			})
		case pcEOF:
			try(me, "EOF", func(m *mStep) {
				m.step(edgeEOF)
				m.s.actors[me].pc, m.s.actors[me].after = pcWake, pcIdle
			})
		case pcWake:
			try(me, "wake, fast path", func(m *mStep) {
				r := &m.s.actors[me]
				if m.step(edgeReadable)&actRun != 0 {
					r.pc, r.fast = pcCheck, true
				} else {
					r.pc = r.after
				}
			})
			try(me, "wake, emit PollReady", func(m *mStep) {
				m.push(evPoll)
				m.s.actors[me].pc = m.s.actors[me].after
			})
		case pcCheck, pcLoadEOF, pcPop, pcHandle, pcClose, pcRelease:
			if a.pc != pcClose || wmuFree(me) {
				x.drainStep(me, a, try)
			}
		case pcFinalize:
			try(me, "finalize", func(m *mStep) {
				w := &m.s.actors[me]
				w.act, w.pc = m.step(edgeFinalize), pcFinInbox
				if !m.s.tornDown {
					m.fail("finalize before teardown")
				}
			})
		case pcFinInbox:
			try(me, "finalize: inbox", func(m *mStep) {
				w := &m.s.actors[me]
				if w.act&actReleaseInbox != 0 {
					for m.s.inHead < m.s.inTail {
						m.s.inHead++
						m.releaseChunk(m.s.inHead)
					}
				}
				w.pc = pcFinOutbound
			})
		case pcFinOutbound:
			if a.act&actFreeOutbound == 0 || wmuFree(me) && !s.pumping {
				try(me, "finalize: outbound", func(m *mStep) {
					w := &m.s.actors[me]
					if w.act&actFreeOutbound != 0 {
						m.freeOutboundLocked()
					}
					w.pc = pcFinDetach
				})
			}
		case pcFinDetach:
			try(me, "finalize: detach, OnClose", func(m *mStep) {
				w := &m.s.actors[me]
				if w.act&actDetach != 0 {
					if m.s.finalized++; m.s.finalized > 1 {
						m.fail("finalized twice")
					}
				}
				*w = mActor{}
			})
		case pcSend:
			if wmuFree(me) {
				x.send(me, s, try)
			}
		case pcFlush:
			try(me, "flush: the socket takes it all", func(m *mStep) {
				m.flushAll()
				m.s.wmu, m.s.actors[me].pc = 0, pcSend
			})
			try(me, "flush: the socket is full", func(m *mStep) { m.s.actors[me].pc = pcPark })
		case pcPark:
			try(me, "park", func(m *mStep) {
				first := uint8(0)
				for first < m.s.nOut && m.s.outq[first].parked {
					first++
				}
				for i := range m.s.outq[:m.s.nOut] {
					m.s.outq[i].parked = true
				}
				if m.closeState() >= lifeClosed {
					m.freeOutboundLocked()
				} else if first == 0 && m.step(edgePark)&actRun != 0 {
					m.startPump()
				}
				m.s.wmu, m.s.actors[me].pc = 0, pcSend
			})
		case pcPumpLock:
			if wmuFree(me) {
				try(me, "pump pass", func(m *mStep) {
					p := &m.s.actors[me]
					if m.closeState() < lifeClosed && m.queueParked() {
						m.s.pumping, p.pc = true, pcPumpWrite
						return
					}
					m.pumpTail()
					p.pc = pcPumpRelease
				})
			}
		case pcPumpWrite:
			if s.word>>closeShift&3 < lifeClosed {
				try(me, "pump write succeeds", func(m *mStep) {
					m.s.actors[me].ok, m.s.actors[me].pc = true, pcPumpDone
				})
			}
			try(me, "pump write fails", func(m *mStep) {
				m.s.actors[me].ok, m.s.actors[me].pc = false, pcPumpDone
			})
		case pcPumpDone:
			if wmuFree(me) {
				try(me, "pump write returns", func(m *mStep) {
					p := &m.s.actors[me]
					m.s.pumping = false
					if p.ok {
						m.flushAll()
					} else {
						m.teardown()
						m.freeOutboundLocked()
					}
					m.pumpTail()
					p.pc = pcPumpRelease
				})
			}
		case pcPumpRelease:
			try(me, "pump release", func(m *mStep) {
				p := &m.s.actors[me]
				if m.step(edgePumpDone)&actAgain != 0 {
					p.pc = pcPumpLock
				} else {
					*p = mActor{}
				}
			})
		case pcCloser:
			if x.cfg.closer == 1 && wmuFree(me) {
				try(me, "Close", func(m *mStep) {
					m.closeConn()
					m.s.actors[me].pc = pcIdle
				})
			} else if x.cfg.closer == 2 {
				try(me, "teardown(err)", func(m *mStep) {
					m.teardown()
					m.s.actors[me].pc = pcIdle
				})
			}
		}
	}
	return out
}

// workerTake is an idle event worker taking the queue's head event.
func (x *explorer) workerTake(me int, s mState, try func(int, string, func(*mStep))) {
	ev := s.events[0]
	try(me, "takes "+eventNames[ev], func(m *mStep) {
		copy(m.s.events[:], m.s.events[1:])
		m.s.nEvents--
		m.s.events[m.s.nEvents] = 0
		w := &m.s.actors[me]
		switch ev {
		case evPoll:
			if m.step(edgeReadable)&actRun != 0 {
				*w = mActor{pc: pcCheck, after: pcIdle}
			}
		case evResume:
			*w = mActor{pc: pcCheck, after: pcIdle}
		case evClose:
			*w = mActor{pc: pcFinalize}
		}
	})
}

// drainStep is one step of Conn.drain on whichever actor owns the gate.
func (x *explorer) drainStep(me int, a mActor, try func(int, string, func(*mStep))) {
	switch a.pc {
	case pcCheck:
		try(me, "drain: check closed", func(m *mStep) {
			if m.closeState() >= lifeClosed {
				m.s.actors[me].pc = pcRelease
			} else {
				m.s.actors[me].pc = pcLoadEOF
			}
		})
	case pcLoadEOF:
		try(me, "drain: load EOF", func(m *mStep) {
			d := &m.s.actors[me]
			d.eof, d.pc = m.s.word>>eofShift&1 != 0, pcPop
		})
	case pcPop:
		try(me, "drain: popInbox", func(m *mStep) {
			d := &m.s.actors[me]
			switch {
			case m.s.inHead < m.s.inTail:
				m.s.inHead++
				d.chunk, d.pc = m.s.inHead, pcHandle
			case d.eof:
				d.pc = pcClose
			default:
				d.pc = pcRelease
			}
		})
	case pcHandle:
		handle := func(m *mStep) {
			d := &m.s.actors[me]
			if d.chunk != m.s.handled+1 {
				m.fail("chunk %d handled after chunk %d", d.chunk, m.s.handled)
			}
			m.s.handled = d.chunk
			m.releaseChunk(d.chunk)
			d.pc = pcCheck
		}
		try(me, fmt.Sprintf("drain: handle chunk %d", a.chunk), handle)
		if a.fast {
			try(me, fmt.Sprintf("drain: handle chunk %d, punt", a.chunk), func(m *mStep) {
				handle(m)
				m.step(edgePunt)
				m.push(evResume)
				m.s.actors[me] = mActor{pc: m.s.actors[me].after}
			})
		}
	case pcClose:
		try(me, "drain: EOF, Close", func(m *mStep) {
			if m.closeState() < lifeClosed && m.s.handled != m.s.read {
				m.fail("EOF closed the connection with chunk %d unhandled", m.s.handled+1)
			}
			m.closeConn()
			m.s.actors[me].pc = pcRelease
		})
	case pcRelease:
		try(me, "drain: release", func(m *mStep) {
			d := &m.s.actors[me]
			if m.step(edgeRelease)&actAgain != 0 {
				d.pc = pcCheck
			} else {
				*d = mActor{pc: d.after}
			}
		})
	}
}

// send is Conn.send's section under writeMu, up to its flush.
func (x *explorer) send(me int, s mState, try func(int, string, func(*mStep))) {
	if s.tried == x.cfg.replies {
		try(me, "done", func(m *mStep) { m.s.actors[me].pc = pcIdle })
		return
	}
	id := s.tried + 1
	try(me, fmt.Sprintf("send reply %d", id), func(m *mStep) {
		m.s.tried = id
		if st := m.closeState(); st != lifeOpen {
			return // ErrConnClosed
		}
		if m.s.tornDown || m.s.lastOut {
			m.fail("reply %d accepted after the connection closed", id)
		}
		m.s.accepted |= 1 << (id - 1)
		parked := m.queueParked()
		m.s.outq[m.s.nOut] = mItem{id: id, last: x.cfg.last && id == x.cfg.replies}
		m.s.nOut++
		m.s.wmu = uint8(me + 1)
		if parked {
			m.s.actors[me].pc = pcPark
		} else {
			m.s.actors[me].pc = pcFlush
		}
	})
}

// invariants checks what must hold in every state.
func (x *explorer) invariants(s *mState) string {
	owners, pumps := 0, 0
	for i, a := range s.actors {
		if a.pc >= pcCheck && a.pc <= pcRelease {
			owners++
		}
		if (i == aPump0 || i == aPump1) && a.pc != pcIdle {
			pumps++
		}
	}
	for _, ev := range s.events[:s.nEvents] {
		if ev == evResume {
			owners++
		}
	}
	switch {
	case owners > 1:
		return fmt.Sprintf("%d read owners at once", owners)
	case pumps > 1:
		return fmt.Sprintf("%d pumps at once", pumps)
	}
	return ""
}

// final checks what must hold once no actor can move.
func (x *explorer) final(s *mState) string {
	for i, a := range s.actors {
		if a.pc != pcIdle {
			return fmt.Sprintf("%s stuck at step %d", actorNames[i], a.pc)
		}
	}
	if s.word&(3<<readShift|3<<pumpShift) != 0 {
		return fmt.Sprintf("a gate left claimed (word %08b)", s.word)
	}
	switch {
	case s.tornDown:
	case s.inHead != s.inTail:
		return fmt.Sprintf("lost wakeup: chunk %d queued with no drain", s.inTail)
	case s.nOut > 0:
		return fmt.Sprintf("lost wakeup: reply %d parked with no pump", s.outq[0].id)
	case s.word>>closeShift&3 == lifeClosing:
		return "lost wakeup: a Close waits on an empty queue"
	case s.word>>eofShift&1 != 0:
		return "lost wakeup: the peer's EOF was never answered"
	}
	switch {
	case s.leases != uint8(1)<<s.read-1:
		return fmt.Sprintf("chunk lease leaked: %d read, released %04b", s.read, s.leases)
	case s.settled != s.accepted:
		return fmt.Sprintf("reply leaked: accepted %04b, sent or released %04b", s.accepted, s.settled)
	case s.tornDown && s.finalized != 1:
		return "torn down but never finalized"
	}
	return ""
}

// explore walks every interleaving breadth first and returns the first
// violation with the shortest edge sequence that reaches it, and the
// number of states visited.
func (x *explorer) explore() (violation string, trace []string, states int) {
	var start mState
	start.actors[aReader].pc = pcRead
	if x.cfg.replies > 0 {
		start.actors[aSender].pc = pcSend
	}
	if x.cfg.closer != 0 {
		start.actors[aCloser].pc = pcCloser
	}
	type node struct {
		s      mState
		parent int
		label  string
		depth  int
	}
	nodes := []node{{s: start, parent: -1}}
	seen := map[mState]bool{start: true}
	path := func(i int, last string) []string {
		out := []string{last}
		for ; i > 0; i = nodes[i].parent {
			out = append(out, nodes[i].label)
		}
		for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
			out[l], out[r] = out[r], out[l]
		}
		return out
	}
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		if n.depth == x.cfg.depth {
			return fmt.Sprintf("depth bound %d reached before every interleaving ended", x.cfg.depth), path(i, "…"), len(nodes)
		}
		moves := x.moves(n.s)
		if len(moves) == 0 {
			if v := x.final(&n.s); v != "" {
				return v, path(i, "(no actor can move)"), len(nodes)
			}
		}
		for _, mv := range moves {
			if mv.viol != "" {
				return mv.viol, path(i, mv.label), len(nodes)
			}
			if !seen[mv.s] {
				seen[mv.s] = true
				nodes = append(nodes, node{s: mv.s, parent: i, label: mv.label, depth: n.depth + 1})
			}
		}
	}
	return "", nil, len(nodes)
}

// exploreConfigs are the connections the explorer runs: each small
// enough to explore exhaustively, together reaching every edge.
var exploreConfigs = []exploreConfig{
	{name: "reads only", chunks: 3, workers: 2, depth: 80},
	{name: "reads then EOF", chunks: 2, eof: true, workers: 2, depth: 80},
	{name: "reads, replies, Close", chunks: 1, workers: 1, replies: 2, closer: 1, depth: 80},
	{name: "reads, replies, teardown", chunks: 2, workers: 1, replies: 1, closer: 2, depth: 80},
	{name: "EOF behind a parked Last reply", chunks: 1, eof: true, workers: 1, replies: 2, last: true, depth: 80},
	{name: "parked replies, two workers", chunks: 1, workers: 2, replies: 2, closer: 2, depth: 80},
}

func runExplorer(t *testing.T, table *lifeTable) (violation string, trace []string) {
	t.Helper()
	for _, cfg := range exploreConfigs {
		x := &explorer{cfg: cfg, table: table}
		v, tr, n := x.explore()
		if v != "" {
			return cfg.name + ": " + v, tr
		}
		t.Logf("%s: %d states, every invariant holds", cfg.name, n)
	}
	return "", nil
}

// TestLifecycleExplorer explores the runtime's own table.
func TestLifecycleExplorer(t *testing.T) {
	if v, trace := runExplorer(t, &lifecycle); v != "" {
		t.Fatalf("%s\nshortest failing sequence:\n  %s", v, strings.Join(trace, "\n  "))
	}
}

// TestLifecycleExplorerCatchesMutants runs the explorer over three
// broken copies of the table, each of which it must fail.
func TestLifecycleExplorerCatchesMutants(t *testing.T) {
	for _, mu := range []struct {
		name   string
		mutate func(t *lifeTable)
		want   string
	}{
		{"a claim that succeeds while draining (concurrent drains, reordered chunks)",
			func(t *lifeTable) { t[edgeReadable].on[gateDraining] = transition{gateDraining, actRun} },
			"read owners"},
		{"a finalize that skips the inbox release",
			func(t *lifeTable) { t[edgeFinalize].on[lifeClosed].act &^= actReleaseInbox },
			"chunk lease leaked"},
		{"a release from rearm that re-arms instead of going around",
			func(t *lifeTable) { t[edgeRelease].on[gateRearm] = transition{gateArmed, 0} },
			"lost wakeup"},
	} {
		t.Run(mu.name, func(t *testing.T) {
			m := lifecycle
			mu.mutate(&m)
			v, trace := runExplorer(t, &m)
			if !strings.Contains(v, mu.want) {
				t.Fatalf("explorer reported %q, want a %q violation", v, mu.want)
			}
			t.Logf("%s\n  %s", v, strings.Join(trace, "\n  "))
		})
	}
}

var edgeNames = [numEdges]string{"readable", "release", "punt", "park", "pumpDone", "eof", "close", "teardown", "finalize"}

func actionString(a action) string {
	if a == 0 {
		return "none"
	}
	var parts []string
	for i, name := range []string{"run", "again", "defer", "teardown", "releaseInbox", "freeOutbound", "detach", "BAD"} {
		if a&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "|")
}
