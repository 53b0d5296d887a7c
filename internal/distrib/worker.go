package distrib

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// The worker side of the protocol: one process (or, in tests, one
// goroutine) that evaluates assigned campaign cells serially and streams
// results back. Workers are deliberately stateless beyond their caches — a
// worker learns the campaign from its config frame, never trains
// (experiments.CampaignOptions.NoTrain; rule 7), and can be killed at any
// instant without the campaign losing anything but the in-flight cell.

// faultError marks a deliberate, plan-injected death so the -worker exit
// path can distinguish sabotage from a genuine failure in logs.
type faultError struct{ name string }

func (e faultError) Error() string {
	return fmt.Sprintf("distrib: fault injected: %s", e.name)
}

// WorkerOptions tune ServeWorker.
type WorkerOptions struct {
	// Logf, when non-nil, receives progress lines (stderr on a worker
	// process, t.Logf in tests).
	Logf func(format string, args ...any)
}

type worker struct {
	conn io.ReadWriteCloser
	wmu  sync.Mutex // serializes frames: results vs heartbeats
	logf func(string, ...any)

	id    int
	run   *experiments.CampaignRun
	cells []scenario.Cell
	fp    string
	plan  FaultPlan

	assigned int // assignments received (1-based ordinals for FaultPlan)
	results  int // result frames attempted
	muted    atomic.Bool
	done     chan struct{} // closed when the connection is severed
}

// ServeWorker speaks the worker protocol on conn until shutdown, a severed
// connection, or an injected fault. It is the body of `mrsch-exp -worker`
// and runs in-process (over a pipe) in the fault-injection tests.
func ServeWorker(conn io.ReadWriteCloser, opt WorkerOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w := &worker{conn: conn, logf: logf, done: make(chan struct{})}

	msgs := make(chan *message)
	var readErr error
	go func() {
		defer close(w.done)
		defer close(msgs)
		for {
			m, err := readFrame(conn)
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			msgs <- m
		}
	}()

	if err := w.send(&message{Type: msgHello, Proto: ProtocolVersion}); err != nil {
		return err
	}
	for m := range msgs {
		switch m.Type {
		case msgConfig:
			if err := w.configure(m); err != nil {
				w.send(&message{Type: msgFatal, Worker: w.id, Err: err.Error()})
				return err
			}
		case msgAssign:
			if w.run == nil {
				err := fmt.Errorf("distrib: worker: assign before config")
				w.send(&message{Type: msgFatal, Worker: w.id, Err: err.Error()})
				return err
			}
			if err := w.handleAssign(m.Cell); err != nil {
				return err
			}
		case msgShutdown:
			w.logf("worker %d: shutdown after %d cell(s)", w.id, w.assigned)
			return nil
		default:
			return fmt.Errorf("distrib: worker: unexpected %s frame", m.Type)
		}
	}
	if readErr != nil {
		return fmt.Errorf("distrib: worker %d: connection severed: %w", w.id, readErr)
	}
	return fmt.Errorf("distrib: worker %d: coordinator closed the connection without shutdown", w.id)
}

// configure builds the worker's campaign run from the config frame and
// starts the heartbeat loop.
func (w *worker) configure(m *message) error {
	// Reject a coordinator from another protocol revision before trusting
	// anything else in the frame — and name its version, so an operator
	// staring at a mixed-binary deployment knows which side to upgrade.
	if m.Proto != ProtocolVersion {
		return fmt.Errorf("distrib: worker config: coordinator speaks protocol %d, worker %d", m.Proto, ProtocolVersion)
	}
	spec, err := scenario.Load(bytes.NewReader(m.Spec))
	if err != nil {
		return fmt.Errorf("distrib: worker config: %w", err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return fmt.Errorf("distrib: worker config: %w", err)
	}
	if fp != m.Fingerprint {
		return fmt.Errorf("distrib: worker config: spec fingerprint %s does not match the coordinator's %s", fp, m.Fingerprint)
	}
	if err := m.Plan.Validate(); err != nil {
		return err
	}
	// NoTrain: every trained family model must already sit in the store the
	// coordinator populated (rule 7). Pipelined mirrors the coordinator's
	// training mode — the store key is a function of it.
	run, err := experiments.OpenCampaign(spec, experiments.CampaignOptions{
		Pipelined: m.Pipelined,
		ModelDir:  m.ModelDir,
		NoTrain:   true,
	})
	if err != nil {
		return err
	}
	w.id = m.Worker
	w.run = run
	w.cells = run.Cells()
	w.fp = m.Fingerprint
	w.plan = m.Plan
	w.logf("worker %d: campaign %s configured (%d cells, fingerprint %s)", w.id, spec.Name, len(w.cells), fp)

	interval := time.Duration(m.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	go w.heartbeatLoop(interval)
	return nil
}

func (w *worker) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			if w.muted.Load() {
				continue
			}
			// A send error means the connection died; the reader notices
			// and ends the serve loop, so drop it here.
			w.send(&message{Type: msgHeartbeat, Worker: w.id})
		}
	}
}

// handleAssign evaluates one cell and sends its result, with the fault plan
// consulted at every stage boundary.
func (w *worker) handleAssign(cell int) error {
	w.assigned++
	if w.plan.KillAtCell == w.assigned {
		w.conn.Close()
		return faultError{"kill_at_cell"}
	}
	if w.plan.MuteAtCell == w.assigned {
		// Alive but silent: heartbeats stop and the evaluation stalls until
		// the coordinator gives up on us and severs the connection.
		w.muted.Store(true)
		<-w.done
		return faultError{"mute_at_cell"}
	}
	if cell < 0 || cell >= len(w.cells) {
		err := fmt.Errorf("distrib: worker %d: assigned cell %d outside grid [0, %d)", w.id, cell, len(w.cells))
		w.send(&message{Type: msgFatal, Worker: w.id, Err: err.Error()})
		return err
	}
	c := w.cells[cell]
	out := &message{Type: msgResult, Worker: w.id, Cell: cell, Fingerprint: w.fp}
	if err := w.run.ResolveCell(c); err != nil {
		out.CellErr = err.Error()
	} else if res, err := w.run.EvalCell(c); err != nil {
		out.CellErr = err.Error()
	} else {
		out.Report = res.Report
	}
	if w.plan.KillAfterEval == w.assigned {
		w.conn.Close()
		return faultError{"kill_after_eval"}
	}
	w.logf("worker %d: cell %d (%s) done", w.id, cell, c.Label())
	return w.sendResult(out)
}

// sendResult transmits one result frame, applying the frame-level faults.
func (w *worker) sendResult(m *message) error {
	w.results++
	n := w.results
	payload, err := encodeMessage(m)
	if err != nil {
		return err
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	switch {
	case w.plan.CorruptResult == n:
		// Flip a payload byte under the original checksum: the frame
		// arrives whole but provably damaged.
		bad := append([]byte(nil), payload...)
		bad[len(bad)/2] ^= 0xff
		wire.WriteRawFrame(w.conn, bad, len(bad), wire.Checksum(payload))
		return nil // keep serving; the coordinator severs us on receipt
	case w.plan.TruncateResult == n:
		// Declare the full length, deliver half, die — a crash mid-write.
		wire.WriteRawFrame(w.conn, payload[:len(payload)/2], len(payload), wire.Checksum(payload))
		w.conn.Close()
		return faultError{"truncate_result"}
	case w.plan.DuplicateResult == n:
		if err := wire.WriteFrame(w.conn, payload); err != nil {
			return err
		}
		return wire.WriteFrame(w.conn, payload)
	default:
		return wire.WriteFrame(w.conn, payload)
	}
}

// send writes one well-formed frame under the write mutex.
func (w *worker) send(m *message) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, m)
}
