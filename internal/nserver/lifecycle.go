package nserver

// A connection's lifecycle is one word stepped through one table. The
// word packs four 2-bit fields:
//
//	read gate  armed | draining | rearm: elects the one drain of the inbox
//	pump gate  armed | draining | rearm: elects the one writePump of a parked queue
//	close      open | closing | closed | finalized
//	eof        0 | 1: the peer's EOF sits behind the inbox's last chunk
//
// Each edge reads and writes one field: lifecycle[edge] maps that field's
// value to its next one and to the action the caller must take. A gate's
// claim (armed → draining) elects its owner. A wakeup that lands
// mid-pass (draining → rearm) is absorbed without blocking, but the
// owner's release then goes around (rearm → draining, actAgain) instead
// of re-arming, so no wakeup is lost and no two drains or pumps overlap.
// closing means a Close or a sent Last reply waits on the outbound queue;
// closed that the transport is down and its close event emitted;
// finalized that the event path has released what the connection held.
// A connection applies an edge with one CAS loop (Conn.step, and the
// step of a generated Communicator: nsgen projects this file into every
// framework). DESIGN §10 prints the table, and lifecycle_test.go explores
// every interleaving of its edges.

// edge is one lifecycle event.
type edge uint8

const (
	edgeReadable edge = iota // inbound bytes queued: claim the read gate
	edgeRelease              // a drain pass ends
	edgePunt                 // a drain moves to an event worker, keeping the read gate
	edgePark                 // replies parked: claim the pump gate
	edgePumpDone             // a pump pass ends
	edgeEOF                  // the peer's EOF is queued
	edgeClose                // a Close or a sent Last reply waits on the queue
	edgeTeardown             // the transport closes
	edgeFinalize             // the close event reached the event path
	numEdges
)

// action is what a transition requires of the caller of step.
type action uint8

const (
	actRun          action = 1 << iota // the gate is claimed: drain, or start the pump
	actAgain                           // a wakeup landed mid-pass: go around, still owning the gate
	actDefer                           // the close waits for the outbound queue to empty
	actTeardown                        // close the transport and emit the close event
	actReleaseInbox                    // release the inbox's queued chunks
	actFreeOutbound                    // release the outbound queue's items
	actDetach                          // deregister and run OnClose
	actBad                             // never taken: the explorer fails on it
)

// The fields' positions in the word and their values.
const (
	readShift, pumpShift, closeShift, eofShift = 0, 2, 4, 6

	gateArmed, gateDraining, gateRearm = 0, 1, 2

	lifeOpen, lifeClosing, lifeClosed, lifeFinalized = 0, 1, 2, 3
)

// transition is one table entry: the field's next value and the action.
type transition struct {
	next uint32
	act  action
}

// lifeTable maps each edge to the field it steps and, by that field's
// current value, to a transition.
type lifeTable [numEdges]struct {
	shift uint32
	on    [4]transition
}

var (
	gateClaim   = [4]transition{{gateDraining, actRun}, {gateRearm, 0}, {gateRearm, 0}, {3, actBad}}
	gateRelease = [4]transition{{gateArmed, actBad}, {gateArmed, 0}, {gateDraining, actAgain}, {3, actBad}}
)

// lifecycle is the table every Conn steps through.
var lifecycle = lifeTable{
	edgeReadable: {readShift, gateClaim},
	edgeRelease:  {readShift, gateRelease},
	edgePunt:     {readShift, [4]transition{{gateArmed, actBad}, {gateDraining, 0}, {gateRearm, 0}, {3, actBad}}},
	edgePark:     {pumpShift, gateClaim},
	edgePumpDone: {pumpShift, gateRelease},
	edgeEOF:      {eofShift, [4]transition{{1, 0}, {1, 0}, {2, actBad}, {3, actBad}}},
	edgeClose:    {closeShift, [4]transition{{lifeClosing, actDefer}, {lifeClosing, actDefer}, {lifeClosed, 0}, {lifeFinalized, 0}}},
	edgeTeardown: {closeShift, [4]transition{{lifeClosed, actTeardown}, {lifeClosed, actTeardown}, {lifeClosed, 0}, {lifeFinalized, 0}}},
	edgeFinalize: {closeShift, [4]transition{{lifeOpen, actBad}, {lifeClosing, actBad},
		{lifeFinalized, actReleaseInbox | actFreeOutbound | actDetach}, {lifeFinalized, 0}}},
}

// apply returns the word edge e steps s to, and the action it requires.
func (t *lifeTable) apply(s uint32, e edge) (uint32, action) {
	row := &t[e]
	tr := row.on[s>>row.shift&3]
	return s&^(3<<row.shift) | tr.next<<row.shift, tr.act
}
