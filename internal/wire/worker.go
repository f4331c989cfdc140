package wire

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/mailbox"
)

// Worker process side. A worker is launched by Spawn with the rendezvous
// address and its group index in the environment; it dials the leader,
// completes the handshake, builds a windowed mailbox machine over its rank
// window, and then serves start frames until shutdown. Every frame it
// sends goes to the leader, which delivers or relays (hub topology).

// unwindBound is how long a worker whose reader has failed — the leader
// is gone, or sent a frame it cannot use — waits for its run to unwind
// before it ends the process with status 2. A PE that never suspends
// never sees the machine abort, and its worker would otherwise outlive
// its leader.
const unwindBound = 3 * time.Second

// Environment keys Spawn sets for worker processes.
const (
	envNet   = "COMMTOPK_WIRE_NET"
	envAddr  = "COMMTOPK_WIRE_ADDR"
	envIndex = "COMMTOPK_WIRE_INDEX"
)

// MaybeWorker turns the current process into a wire worker if the
// rendezvous environment is present, and never returns in that case
// (os.Exit with the worker's status). Call it first thing in main — or
// TestMain — of any binary used as Config.WorkerCommand; the default
// re-exec-self launch mode depends on it.
func MaybeWorker() {
	addr := os.Getenv(envAddr)
	if addr == "" {
		return
	}
	idx, err := strconv.Atoi(os.Getenv(envIndex))
	if err != nil {
		fmt.Fprintf(os.Stderr, "wire worker: bad %s: %v\n", envIndex, err)
		os.Exit(2)
	}
	os.Exit(WorkerMain(os.Getenv(envNet), addr, idx))
}

// WorkerMain runs the worker loop against the leader at (network, addr)
// as group index and returns the process exit code: 0 after a clean
// shutdown frame, nonzero on transport or protocol failure. When the
// leader connection fails and the run in progress has not unwound
// within unwindBound, it exits the process with status 2 itself.
func WorkerMain(network, addr string, index int) int {
	if network == "" {
		network = "unix"
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: dial %s %s: %v\n", index, network, addr, err)
		return 2
	}
	defer conn.Close()
	if err := writeFrame(conn, appendHello(nil, index)); err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: hello: %v\n", index, err)
		return 2
	}
	br := bufio.NewReader(conn)
	body, err := readFrame(br)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: welcome: %v\n", index, err)
		return 2
	}
	w, err := decodeWelcome(body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wire worker %d: %v\n", index, err)
		return 2
	}
	l := newLink(conn)
	m := comm.NewMachine(comm.Config{
		P: w.P, Alpha: w.Alpha, Beta: w.Beta, Seed: w.Seed,
		Remote: &comm.Remote{Lo: w.Lo, Hi: w.Hi, Forward: func(dst int, msg mailbox.Msg) {
			b, err := appendEnvelope(nil, w.P, dst, msg)
			if err != nil {
				panic(err) // unregistered payload: aborts the run with the type name
			}
			l.send(b)
		}},
	})
	defer m.Close()
	l.send([]byte{kReady})

	var (
		curRun    atomic.Uint64 // run in progress (0: idle)
		lastAbort atomic.Uint64 // highest aborted run id seen
		startCh   = make(chan startMsg, 1)
		shutCh    = make(chan struct{})
		downCh    = make(chan error, 1)
	)
	// unwound ends the process unless stopped; fail arms it.
	unwound := time.AfterFunc(unwindBound, func() {
		fmt.Fprintf(os.Stderr, "wire worker %d: the run did not unwind within %v of the failure\n", index, unwindBound)
		os.Exit(2)
	})
	unwound.Stop()
	defer unwound.Stop()
	// fail ends the reader on err: the run in progress aborts, the main
	// loop returns 2 once it has unwound, and the process exits with 2
	// after unwindBound if it has not.
	fail := func(err error) {
		unwound.Reset(unwindBound)
		m.AbortExternal(err)
		downCh <- err
	}
	go func() { // reader: deliveries and control, concurrent with m.Run
		for {
			body, err := readFrame(br)
			if err != nil {
				select {
				case <-shutCh:
					return // clean: leader closed after shutdown
				default:
				}
				fail(fmt.Errorf("wire worker %d: leader connection lost: %w", index, err))
				return
			}
			switch body[0] {
			case kData:
				dst, msg, err := decodeEnvelope(body, w.P)
				if err == nil && (dst < w.Lo || dst >= w.Hi) {
					err = fmt.Errorf("misrouted frame for rank %d (window [%d, %d))", dst, w.Lo, w.Hi)
				}
				if err != nil {
					fail(fmt.Errorf("wire worker %d: %w", index, err))
					return
				}
				m.Deliver(dst, msg)
			case kStart:
				s, err := decodeStart(body)
				if err != nil {
					fail(err)
					return
				}
				startCh <- s
			case kAbort:
				runID, msg, err := decodeAbort(body)
				if err == nil && runID != 0 {
					lastAbort.Store(runID)
					if curRun.Load() == runID {
						m.AbortExternal(fmt.Errorf("wire: aborted by leader: %s", msg))
					}
				}
			case kShutdown:
				close(shutCh)
				return
			default:
				fail(fmt.Errorf("wire worker %d: unexpected frame kind %d", index, body[0]))
				return
			}
		}
	}()

	for {
		select {
		case s := <-startCh:
			dm := doneMsg{RunID: s.RunID}
			pr := lookupProg(s.Prog)
			switch {
			case pr == nil:
				dm.Err = fmt.Sprintf("program %q not registered in worker (import its registration package)", s.Prog)
			default:
				curRun.Store(s.RunID)
				// An abort that raced in before curRun was visible must not
				// be lost: apply it now, poisoning the run so it unwinds.
				if lastAbort.Load() == s.RunID {
					m.AbortExternal(fmt.Errorf("wire: aborted by leader"))
				}
				m.ResetStats()
				results := make([]uint64, w.Hi-w.Lo)
				err := m.Run(func(pe *comm.PE) {
					results[pe.Rank()-w.Lo] = pr(pe, s.Args)
				})
				curRun.Store(0)
				dm.Stats = m.Stats()
				dm.Results = results
				if err != nil {
					dm.Err = err.Error()
				}
			}
			l.send(appendDone(nil, dm))
		case <-shutCh:
			l.close()
			l.wait()
			return 0
		case err := <-downCh:
			fmt.Fprintln(os.Stderr, err)
			l.abort()
			return 2
		}
	}
}
