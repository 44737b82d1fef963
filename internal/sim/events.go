// Protocol observability: both agents used to swallow malformed messages
// and timeouts silently (bare continue / return nil), which made fault
// handling untestable. An optional EventHook now observes every anomaly
// with a kind and reason; EventCounter is a ready-made thread-safe hook
// for tests and the chaos harness.
package sim

import (
	"fmt"
	"sync"
)

// EventKind classifies a protocol anomaly or fault-handling action.
type EventKind int

// Protocol event kinds.
const (
	// EventBadAnnounce: an SBS received a MsgPhaseStart whose payload it
	// could not decode; the phase is skipped.
	EventBadAnnounce EventKind = iota + 1
	// EventUnsolvable: the announced aggregate decoded but the SBS cannot
	// solve against it (its U×F is not the instance's, or the sub-problem
	// rejected it); the phase is skipped.
	EventUnsolvable
	// EventBadUpload: the BS received an upload it could not decode; it
	// is treated as missing.
	EventBadUpload
	// EventMalformedUpload: the upload decoded but failed validation in
	// checkUpload (a shape mismatch, or a routing entry that is NaN,
	// infinite or outside [0,1]); the previous policy stays in force.
	EventMalformedUpload
	// EventUploadTimeout: a full phase window elapsed with no usable
	// upload from the SBS.
	EventUploadTimeout
	// EventAnnounceRetry: the BS retransmitted MsgPhaseStart within the
	// phase window.
	EventAnnounceRetry
	// EventQuarantine: the BS quarantined an SBS after consecutive
	// misses (or re-quarantined it after a failed probe).
	EventQuarantine
	// EventProbeFailed: a cheap rejoin probe went unanswered.
	EventProbeFailed
	// EventRejoin: a quarantined SBS answered its rejoin probe and is
	// healthy again.
	EventRejoin
	// EventSendFailed: a protocol send returned an error (the protocol
	// continues; the timeout machinery owns recovery).
	EventSendFailed
	// EventStateSync: an SBS received a MsgStateSync from a resumed BS and
	// rehydrated its workspace to the carried resume point.
	EventStateSync
	// EventStateSyncMiss: a resumed BS got no MsgStateAck from the SBS
	// within the handshake window; the protocol continues (the phase
	// timeout machinery owns recovery), but the miss is observable.
	EventStateSyncMiss
	// EventStaleAnnounce: an SBS dropped a MsgPhaseStart older than its
	// last state-sync point — a pre-crash ghost still in flight.
	EventStaleAnnounce
	// EventReplayedUpload: an SBS answered a duplicated announce from its
	// reply cache instead of re-solving (and, under LPPM, instead of
	// drawing fresh noise for the same protocol point).
	EventReplayedUpload
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventBadAnnounce:
		return "bad-announce"
	case EventUnsolvable:
		return "unsolvable"
	case EventBadUpload:
		return "bad-upload"
	case EventMalformedUpload:
		return "malformed-upload"
	case EventUploadTimeout:
		return "upload-timeout"
	case EventAnnounceRetry:
		return "announce-retry"
	case EventQuarantine:
		return "quarantine"
	case EventProbeFailed:
		return "probe-failed"
	case EventRejoin:
		return "rejoin"
	case EventSendFailed:
		return "send-failed"
	case EventStateSync:
		return "state-sync"
	case EventStateSyncMiss:
		return "state-sync-miss"
	case EventStaleAnnounce:
		return "stale-announce"
	case EventReplayedUpload:
		return "replayed-upload"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observed protocol anomaly or fault-handling action.
type Event struct {
	Kind EventKind
	// SBS is the index of the SBS concerned (-1 when unknown, e.g. an
	// upload from an unexpected peer).
	SBS int
	// Sweep and Phase locate the event in protocol time.
	Sweep, Phase int
	// Err carries the reason when the event stems from an error.
	Err error
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%s sbs=%d sweep=%d phase=%d", e.Kind, e.SBS, e.Sweep, e.Phase)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// EventHook observes protocol events. Hooks run inline on the protocol
// path and must be fast and must not block; they may be called from
// multiple goroutines (BS and SBS agents).
type EventHook func(Event)

// EventCounter is a thread-safe EventHook implementation that counts
// events by kind — the assertion surface for the fault tests.
type EventCounter struct {
	mu     sync.Mutex
	counts map[EventKind]int
	events []Event
}

// Hook returns the EventHook that feeds this counter.
func (c *EventCounter) Hook() EventHook {
	return func(ev Event) {
		c.mu.Lock()
		if c.counts == nil {
			c.counts = make(map[EventKind]int)
		}
		c.counts[ev.Kind]++
		c.events = append(c.events, ev)
		c.mu.Unlock()
	}
}

// Count returns how many events of the given kind were observed.
func (c *EventCounter) Count(k EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// Total returns the number of observed events across all kinds.
func (c *EventCounter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Events returns a copy of the observed events in order.
func (c *EventCounter) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// MultiHook fans one event out to several hooks (nil entries are skipped).
func MultiHook(hooks ...EventHook) EventHook {
	return func(ev Event) {
		for _, h := range hooks {
			if h != nil {
				h(ev)
			}
		}
	}
}
