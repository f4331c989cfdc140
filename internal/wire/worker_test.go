package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"commtopk/internal/comm"
)

// spinFor bounds test.spin's busy loop, so that a worker that never
// exits on its own still ends long after the test has given up on it.
const spinFor = 60 * time.Second

// test.spin: every PE announces on stdout that it runs and then spins
// without ever suspending, so a machine abort never reaches it.
func init() {
	RegisterProg("test.spin", func(pe *comm.PE, _ []uint64) uint64 {
		fmt.Printf("spinning %d\n", pe.Rank())
		for start := time.Now(); time.Since(start) < spinFor; {
		}
		return 0
	})
}

// TestWorkerExitsWhenLeaderDropsMidSpin plays the leader for one worker
// process (this test binary, re-executed): it completes the handshake,
// starts test.spin, waits until the worker's PE spins, and closes the
// connection. The worker's run cannot unwind, yet the process must end
// by itself with status 2 within unwindBound, with no signal from here.
func TestWorkerExitsWhenLeaderDropsMidSpin(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "leader.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envNet+"=unix", envAddr+"="+addr, envIndex+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	spinning, exited := make(chan struct{}, 1), make(chan error, 1)
	go func() {
		// Wait closes stdout, so everything is read before it is called.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "spinning 1" {
				spinning <- struct{}{}
			}
		}
		exited <- cmd.Wait()
	}()
	reaped := false
	defer func() {
		if !reaped {
			cmd.Process.Kill() // the test failed; do not leave the worker behind
			<-exited
		}
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	body, err := readFrame(br)
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if g, err := decodeHello(body); err != nil || g != 1 {
		t.Fatalf("hello: group %d, %v", g, err)
	}
	w := welcome{P: 2, Procs: 2, Lo: 1, Hi: 2, Alpha: 1000, Beta: 1, Seed: 1}
	if err := writeFrame(conn, appendWelcome(nil, w)); err != nil {
		t.Fatal(err)
	}
	if body, err := readFrame(br); err != nil || body[0] != kReady {
		t.Fatalf("ready: %v, %v", body, err)
	}
	if err := writeFrame(conn, appendStart(nil, startMsg{RunID: 1, Prog: "test.spin"})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-spinning:
	case err := <-exited:
		reaped = true
		t.Fatalf("worker exited before its PE spun: %v\n%s", err, stderr.Bytes())
	case <-time.After(30 * time.Second):
		t.Fatalf("the worker's PE did not start spinning\n%s", stderr.Bytes())
	}
	dropped := time.Now()
	conn.Close()

	select {
	case err := <-exited:
		reaped = true
		took := time.Since(dropped)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("worker ended with %v, want exit status 2\n%s", err, stderr.Bytes())
		}
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			t.Fatalf("worker was killed by %v\n%s", ws.Signal(), stderr.Bytes())
		}
		t.Logf("worker exited with status 2 %v after the leader dropped", took.Round(time.Millisecond))
	case <-time.After(unwindBound + 10*time.Second):
		t.Fatalf("worker still running %v after its leader dropped the connection\n%s", unwindBound+10*time.Second, stderr.Bytes())
	}
}
