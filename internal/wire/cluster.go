package wire

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"commtopk/internal/comm"
	"commtopk/internal/mailbox"
)

// Config describes a wire cluster: the machine shape plus how to reach
// and launch the worker processes.
type Config struct {
	// P is the total PE count; Procs the number of OS processes the PEs
	// are split over (contiguous groups, process 0 = the leader).
	// 1 ≤ Procs ≤ P.
	P     int
	Procs int
	// Alpha/Beta/Seed are the modeled cost constants and the shared RNG
	// seed, distributed to workers in the welcome frame. Zero values
	// select the DefaultConfig constants (α=1000, β=1, seed=1).
	Alpha float64
	Beta  float64
	Seed  int64
	// Network/Addr select the rendezvous transport: "unix" (default) with
	// a socket in a fresh temp dir, or "tcp" on 127.0.0.1:0 — the same
	// dialer seam either way. Addr overrides the listen address.
	Network string
	Addr    string
	// WorkerCommand is the argv launched per worker process; the
	// rendezvous address and group index travel in the environment
	// (COMMTOPK_WIRE_*). Empty selects re-exec-self (os.Executable), the
	// mode the test harness and bench/ use via MaybeWorker.
	WorkerCommand []string
	// HandshakeTimeout bounds Spawn's rendezvous (default 30s);
	// ShutdownTimeout bounds Close's graceful drain before SIGKILL
	// (default 10s).
	HandshakeTimeout time.Duration
	ShutdownTimeout  time.Duration
}

func (c Config) alphaOrDefault() float64 {
	if c.Alpha == 0 && c.Beta == 0 {
		return 1000
	}
	return c.Alpha
}

func (c Config) betaOrDefault() float64 {
	if c.Alpha == 0 && c.Beta == 0 {
		return 1
	}
	return c.Beta
}

func (c Config) seedOrDefault() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// GroupBounds returns the contiguous rank window [lo, hi) of group g in
// a p-PE, procs-process cluster (the same split the mailbox scheduler
// uses for its shards).
func GroupBounds(p, procs, g int) (lo, hi int) {
	return g * p / procs, (g + 1) * p / procs
}

// ctl event kinds (internal).
const (
	evReady = iota
	evDone
	evFail
)

type ctlEvent struct {
	kind  int
	group int
	done  doneMsg
	err   error
}

// Cluster is a spawned wire machine: the leader-side handle owning the
// local PE group, the worker processes, and their connections. Not safe
// for concurrent use; Run and Close serialize on the caller.
type Cluster struct {
	cfg     Config
	p       int
	procs   int
	ownerOf []int32 // rank → owning group
	m       *comm.Machine
	links   []*link // by group; [0] nil (the leader itself)
	cmds    []*exec.Cmd
	ln      net.Listener
	tmpDir  string // owned temp dir of the unix socket, removed on Close

	ctl    chan ctlEvent
	runSeq uint64

	mu     sync.Mutex
	dead   error // first transport/worker failure; cluster unusable after
	closed bool
}

// Spawn launches a wire cluster: it listens on the rendezvous address,
// forks cfg.Procs−1 worker processes, performs the handshake (hello →
// welcome with the rank map and seed → ready), and builds the leader's
// local machine over group 0. On any failure everything already started
// is torn down before returning.
func Spawn(cfg Config) (*Cluster, error) {
	if cfg.P < 1 || cfg.Procs < 1 || cfg.Procs > cfg.P {
		return nil, fmt.Errorf("wire: invalid cluster shape p=%d procs=%d", cfg.P, cfg.Procs)
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 30 * time.Second
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 10 * time.Second
	}
	c := &Cluster{
		cfg:     cfg,
		p:       cfg.P,
		procs:   cfg.Procs,
		ownerOf: make([]int32, cfg.P),
		ctl:     make(chan ctlEvent, 4*cfg.Procs+4),
		links:   make([]*link, cfg.Procs),
	}
	for g := 0; g < cfg.Procs; g++ {
		lo, hi := GroupBounds(cfg.P, cfg.Procs, g)
		for r := lo; r < hi; r++ {
			c.ownerOf[r] = int32(g)
		}
	}
	if err := c.rendezvous(); err != nil {
		c.teardown(true)
		return nil, err
	}
	_, hi0 := GroupBounds(cfg.P, cfg.Procs, 0)
	c.m = comm.NewMachine(comm.Config{
		P: cfg.P, Alpha: cfg.alphaOrDefault(), Beta: cfg.betaOrDefault(),
		Seed:   cfg.seedOrDefault(),
		Remote: &comm.Remote{Lo: 0, Hi: hi0, Forward: c.forward},
	})
	return c, nil
}

// rendezvous starts the listener and workers and completes the
// handshake: each worker dials in, identifies its group (hello), gets
// the machine shape and its rank window (welcome), builds its machine,
// and confirms (ready).
func (c *Cluster) rendezvous() error {
	if c.procs == 1 {
		return nil // degenerate single-process cluster: no transport at all
	}
	network, addr := c.cfg.Network, c.cfg.Addr
	if network == "" {
		network = "unix"
	}
	if addr == "" {
		switch network {
		case "unix":
			dir, err := os.MkdirTemp("", "commtopk-wire-")
			if err != nil {
				return fmt.Errorf("wire: temp dir for rendezvous socket: %w", err)
			}
			c.tmpDir = dir
			addr = filepath.Join(dir, "leader.sock")
		case "tcp":
			addr = "127.0.0.1:0"
		default:
			return fmt.Errorf("wire: unsupported network %q (want unix or tcp)", network)
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s %s: %w", network, addr, err)
	}
	c.ln = ln
	dialAddr := ln.Addr().String()

	argv := c.cfg.WorkerCommand
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("wire: resolve worker executable: %w", err)
		}
		argv = []string{self}
	}
	for g := 1; g < c.procs; g++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(),
			envNet+"="+network,
			envAddr+"="+dialAddr,
			fmt.Sprintf("%s=%d", envIndex, g),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("wire: start worker %d (%s): %w", g, argv[0], err)
		}
		c.cmds = append(c.cmds, cmd)
	}

	deadline := time.Now().Add(c.cfg.HandshakeTimeout)
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(deadline)
	}
	for n := 0; n < c.procs-1; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: rendezvous accept (%d of %d workers connected): %w", n, c.procs-1, err)
		}
		conn.SetDeadline(deadline)
		br := bufio.NewReader(conn)
		body, err := readFrame(br)
		if err != nil {
			conn.Close()
			return fmt.Errorf("wire: rendezvous hello: %w", err)
		}
		g, err := decodeHello(body)
		if err != nil {
			conn.Close()
			return err
		}
		if g < 1 || g >= c.procs || c.links[g] != nil {
			conn.Close()
			return fmt.Errorf("wire: rendezvous: invalid or duplicate group index %d", g)
		}
		lo, hi := GroupBounds(c.p, c.procs, g)
		w := welcome{
			P: c.p, Procs: c.procs, Lo: lo, Hi: hi,
			Alpha: c.cfg.alphaOrDefault(), Beta: c.cfg.betaOrDefault(),
			Seed: c.cfg.seedOrDefault(),
		}
		if err := writeFrame(conn, appendWelcome(nil, w)); err != nil {
			conn.Close()
			return fmt.Errorf("wire: rendezvous welcome to worker %d: %w", g, err)
		}
		conn.SetDeadline(time.Time{})
		c.links[g] = newLink(conn)
		go c.reader(g, br)
	}
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Time{})
	}
	ready := 0
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for ready < c.procs-1 {
		select {
		case ev := <-c.ctl:
			switch ev.kind {
			case evReady:
				ready++
			case evFail:
				return fmt.Errorf("wire: worker %d failed during rendezvous: %w", ev.group, ev.err)
			}
		case <-timeout.C:
			return fmt.Errorf("wire: rendezvous timeout (%d of %d workers ready)", ready, c.procs-1)
		}
	}
	return nil
}

// forward is the leader machine's Remote.Forward hook: encode and ship
// to the destination's owning worker. Called concurrently from PE
// goroutines; link.send never blocks. An unregistered payload type
// panics in the sending PE, which the machine converts into a clean run
// abort naming the type.
func (c *Cluster) forward(dst int, msg mailbox.Msg) {
	body, err := appendEnvelope(nil, c.p, dst, msg)
	if err != nil {
		panic(err)
	}
	c.links[c.ownerOf[dst]].send(body)
}

// reader consumes one worker's frames: local deliveries decode here,
// frames for other workers relay untouched (hub topology), control
// frames go to the ctl channel. A read error (worker death) aborts the
// machine so a run in progress unwinds instead of hanging.
func (c *Cluster) reader(g int, br *bufio.Reader) {
	for {
		body, err := readFrame(br)
		if err != nil {
			c.linkDown(g, fmt.Errorf("wire: worker %d connection lost: %w", g, err))
			return
		}
		switch body[0] {
		case kData:
			dst, ok := envelopeDst(body)
			if !ok || dst < 0 || dst >= c.p {
				c.linkDown(g, fmt.Errorf("wire: worker %d sent a malformed data frame", g))
				return
			}
			if owner := c.ownerOf[dst]; owner != 0 {
				c.links[owner].send(body)
				continue
			}
			dst, msg, err := decodeEnvelope(body, c.p)
			if err != nil {
				c.linkDown(g, fmt.Errorf("wire: worker %d: %w", g, err))
				return
			}
			c.m.Deliver(dst, msg)
		case kReady:
			c.ctl <- ctlEvent{kind: evReady, group: g}
		case kDone:
			dm, err := decodeDone(body)
			if err != nil {
				c.linkDown(g, fmt.Errorf("wire: worker %d: %w", g, err))
				return
			}
			if dm.Err != "" {
				// A remote failure can leave local PEs (and other workers)
				// blocked on messages that will never come; propagate the
				// abort immediately, from here, rather than after the local
				// run returns.
				remoteErr := fmt.Errorf("wire: worker %d: %s", g, dm.Err)
				c.m.AbortExternal(remoteErr)
				c.broadcastAbort(dm.RunID, remoteErr.Error())
			}
			c.ctl <- ctlEvent{kind: evDone, group: g, done: dm}
		case kShutdown, kStart, kAbort, kWelcome, kHello:
			c.linkDown(g, fmt.Errorf("wire: worker %d sent unexpected frame kind %d", g, body[0]))
			return
		default:
			c.linkDown(g, fmt.Errorf("wire: worker %d sent unknown frame kind %d", g, body[0]))
			return
		}
	}
}

// linkDown records a worker failure: the cluster is dead from here on,
// and any run in progress unwinds via the machine abort.
func (c *Cluster) linkDown(g int, err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	closed := c.closed
	c.mu.Unlock()
	c.links[g].abort()
	if c.m != nil && !closed {
		c.m.AbortExternal(err)
	}
	c.ctl <- ctlEvent{kind: evFail, group: g, err: err}
}

func (c *Cluster) broadcastAbort(runID uint64, msg string) {
	for _, l := range c.links {
		if l != nil {
			l.send(appendAbort(nil, runID, msg))
		}
	}
}

// P returns the cluster's total PE count.
func (c *Cluster) P() int { return c.p }

// Procs returns the cluster's process count (including the leader).
func (c *Cluster) Procs() int { return c.procs }

// Run executes the named registered program SPMD across all processes
// and returns the per-rank result words and the cluster-wide folded
// statistics (totals summed, bottleneck maxima and the modeled clock
// maxed over processes). The first failure anywhere — a PE panic in any
// process, a worker death, an unregistered payload — aborts every
// process's run and is returned; a worker death additionally marks the
// cluster dead (subsequent Runs fail immediately).
func (c *Cluster) Run(prog string, args []uint64) ([]uint64, comm.Stats, error) {
	c.mu.Lock()
	dead, closed := c.dead, c.closed
	c.mu.Unlock()
	if closed {
		return nil, comm.Stats{}, fmt.Errorf("wire: cluster is closed")
	}
	if dead != nil {
		return nil, comm.Stats{}, fmt.Errorf("wire: cluster is dead: %w", dead)
	}
	pr := lookupProg(prog)
	if pr == nil {
		return nil, comm.Stats{}, fmt.Errorf("wire: program %q not registered", prog)
	}
	c.runSeq++
	runID := c.runSeq
	c.m.ResetStats()
	start := appendStart(nil, startMsg{RunID: runID, Prog: prog, Args: args})
	for _, l := range c.links {
		if l != nil {
			l.send(start)
		}
	}
	results := make([]uint64, c.p)
	localErr := c.m.Run(func(pe *comm.PE) {
		results[pe.Rank()] = pr(pe, args)
	})
	firstErr := localErr
	if localErr != nil {
		c.broadcastAbort(runID, localErr.Error())
	}
	stats := c.m.Stats()
	doneSeen := make([]bool, c.procs)
	for pending := c.procs - 1; pending > 0; {
		ev := <-c.ctl
		switch ev.kind {
		case evDone:
			if ev.done.RunID != runID || doneSeen[ev.group] {
				continue // stale (failed earlier run); cluster is dead anyway
			}
			doneSeen[ev.group] = true
			pending--
			if ev.done.Err != "" && firstErr == nil {
				firstErr = fmt.Errorf("wire: worker %d: %s", ev.group, ev.done.Err)
			}
			lo, hi := GroupBounds(c.p, c.procs, ev.group)
			if len(ev.done.Results) == hi-lo {
				copy(results[lo:hi], ev.done.Results)
			} else if firstErr == nil {
				firstErr = fmt.Errorf("wire: worker %d returned %d results for window [%d, %d)", ev.group, len(ev.done.Results), lo, hi)
			}
			stats.TotalWords += ev.done.Stats.TotalWords
			stats.TotalSends += ev.done.Stats.TotalSends
			stats.MaxSentWords = max(stats.MaxSentWords, ev.done.Stats.MaxSentWords)
			stats.MaxRecvWords = max(stats.MaxRecvWords, ev.done.Stats.MaxRecvWords)
			stats.MaxSends = max(stats.MaxSends, ev.done.Stats.MaxSends)
			if ev.done.Stats.MaxClock > stats.MaxClock {
				stats.MaxClock = ev.done.Stats.MaxClock
			}
		case evFail:
			if !doneSeen[ev.group] {
				pending--
			}
			if firstErr == nil {
				firstErr = ev.err
			}
		}
	}
	if firstErr != nil {
		return nil, comm.Stats{}, firstErr
	}
	return results, stats, nil
}

// Close tears the cluster down: shutdown frames to every worker, a
// bounded wait for clean exits, SIGKILL for stragglers, and release of
// the leader machine, listener and socket directory. Idempotent. Safe to
// call on a dead cluster (workers that died are reaped; live ones are
// told to exit).
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	dead := c.dead
	c.mu.Unlock()
	graceful := dead == nil
	return c.teardown(!graceful)
}

func (c *Cluster) teardown(force bool) error {
	var firstErr error
	if !force {
		for _, l := range c.links {
			if l != nil {
				l.send([]byte{kShutdown})
				l.close()
			}
		}
	} else {
		for _, l := range c.links {
			if l != nil {
				l.abort()
			}
		}
	}
	deadline := time.Now().Add(c.cfg.ShutdownTimeout)
	for i, cmd := range c.cmds {
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		var werr error
		select {
		case werr = <-exited:
		case <-time.After(time.Until(deadline)):
			cmd.Process.Kill()
			werr = <-exited
			if !force && firstErr == nil {
				firstErr = fmt.Errorf("wire: worker %d did not exit within %v; killed", i+1, c.cfg.ShutdownTimeout)
			}
		}
		if !force && werr != nil && firstErr == nil {
			firstErr = fmt.Errorf("wire: worker %d exit: %w", i+1, werr)
		}
	}
	for _, l := range c.links {
		if l != nil {
			l.abort()
			l.wait()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
	if c.tmpDir != "" {
		os.RemoveAll(c.tmpDir)
	}
	if c.m != nil {
		c.m.Close()
	}
	return firstErr
}
