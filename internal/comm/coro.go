package comm

import (
	"iter"
	"runtime/debug"
	"slices"
)

// Blocking bodies as coroutines.
//
// BodyStep wraps a blocking body as a Stepper: the body runs as a
// coroutine (iter.Pull) that Step resumes. Where the body would have to
// wait for a message (Wait, Recv, RunSteps), it yields the unbound handle
// instead; Step returns it, and whoever drives the stepper suspends on it
// as on any stepper's handle. The message's arrival makes the driver call
// Step again, and next switches straight back into the body where it
// yielded. No goroutine parks on a mailbox: while the body is suspended,
// its stack is the coroutine's.
//
// Machine.Run is RunAsync over one BodyStep per PE. A BodyStep may also
// run inside another body — a slot of the serving mux, or a blocking body
// that drives it with RunSteps — because Step installs the coroutine's
// yield in pe.yield only while it resumes the body and restores the
// driver's afterwards. Every unfinished coroutine of a PE is on its live
// list, and an aborted run stops them all (resetAsync).
//
// The one contract this adds: a blocking body may wait only on comm
// receives. A body blocked on anything else — a channel, a lock, a sleep
// — holds the worker it runs on, and at w < p can stall the run.
type coro struct {
	next func() (*RecvHandle, bool)
	stop func()
}

// bodyPanic is a body's panic value with the stack it was raised on,
// captured inside the coroutine before it unwound (the worker that
// re-raises it shows only scheduler frames).
type bodyPanic struct {
	r     any
	stack []byte
}

// BodyStep wraps body as a Stepper of pe: the body starts at the first
// Step, and each Step runs it until it waits on a receive whose message
// has not arrived (Step returns that handle) or returns (Step returns
// nil). The body's collectives meter, draw and order exactly as they
// would in a blocking Run. A panic in the body surfaces from Step.
func BodyStep(pe *PE, body func(pe *PE)) Stepper {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(*RecvHandle) bool) {
		returned := false
		defer func() {
			pe.dropCoro(c)
			switch r := recover().(type) {
			case abortedError:
				// Stopped on the abort path (resetAsync): the body has unwound.
			case nil:
				if !returned {
					// runtime.Goexit (t.FailNow): as a panic it reaches next as a
					// value instead of ending the worker goroutine.
					panic(bodyPanic{"runtime.Goexit in a blocking body", debug.Stack()})
				}
			default:
				panic(bodyPanic{r, debug.Stack()})
			}
		}()
		pe.yield = yield
		body(pe)
		returned = true
	})
	pe.coros = append(pe.coros, c)
	return c
}

// Step resumes the body until it yields the handle it waits on or ends,
// with the body's own yield installed for the resume (suspend reinstalls
// it when the body resumes) and the driver's restored afterwards.
func (c *coro) Step(pe *PE) *RecvHandle {
	outer := pe.yield
	h, _ := c.next()
	pe.yield = outer
	return h
}

// dropCoro takes a finished coroutine off pe's live list.
func (pe *PE) dropCoro(c *coro) {
	for i := len(pe.coros) - 1; i >= 0; i-- {
		if pe.coros[i] == c {
			pe.coros = slices.Delete(pe.coros, i, i+1)
			return
		}
	}
}
