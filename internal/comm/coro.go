package comm

import (
	"iter"
	"runtime/debug"
)

// Blocking bodies as coroutines.
//
// Machine.Run is RunAsync over one coro per PE: the blocking body runs as
// a coroutine (iter.Pull) that the coro's Step resumes. Where the body
// would have to wait for a message (Wait, Recv, RunSteps), it yields the
// unbound handle instead; Step returns it, and the worker suspends the
// rank exactly as it suspends any stepper. The message's arrival makes the
// scheduler call Step again, and next switches straight back into the
// body where it yielded. No goroutine parks on a mailbox: while the body
// is suspended, its stack is the coroutine's.
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

// newCoro wraps body as pe's coroutine. The body starts at the first Step.
func newCoro(pe *PE, body func(pe *PE)) *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(*RecvHandle) bool) {
		returned := false
		defer func() {
			pe.yield = nil
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
	return c
}

// Step resumes the body until it yields the handle it waits on or ends.
// A panic in the body surfaces here, from next, on the worker's abort
// path.
func (c *coro) Step(*PE) *RecvHandle {
	h, _ := c.next()
	return h
}
