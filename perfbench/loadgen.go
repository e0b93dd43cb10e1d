package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"lossyckpt/internal/server"
	"lossyckpt/internal/stats"
)

// errGate marks a correctness failure: the run stops and reports
// correct=false instead of counting the operation.
var errGate = errors.New("correctness gate")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// client is one closed-loop load generator bound to one tenant: it
// sends its next request only after the previous reply.
type client struct {
	w      *workload
	tenant tenantSpec
	base   string // http://host:port
	hc     *http.Client
	src    source

	saves    int
	lastGen  uint64 // generation of the last successful save, 0 = unknown
	expected []server.NamedField
	body     bytes.Buffer // save request body, reused from save to save

	// Results of the measured phase.
	saveLat, restoreLat []time.Duration
	attempted, failed   int
	rawMoved            int64   // field bytes saved plus restored
	maxRelErr           float64 // fraction, over every restored field
	rawPerSave          int64
	storeRatios         []float64 // stored bytes per raw byte retained, one per cycle
}

func newClient(w *workload, t tenantSpec, base string, hc *http.Client, src source) *client {
	return &client{w: w, tenant: t, base: base, hc: hc, src: src}
}

// newHTTPClient returns a client whose transport keeps one connection,
// which the clients share as they take turns.
func newHTTPClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}
}

func (c *client) request(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+"/v1/"+c.tenant.name+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+tokenFor(c.tenant))
	return c.hc.Do(req)
}

func tokenFor(t tenantSpec) string { return "token-" + t.name }

// refusal reads a non-200 reply into an error (a failed operation).
func refusal(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: HTTP %d: %s", op, resp.StatusCode, bytes.TrimSpace(msg))
}

// save sends the source's next field set and checks the reply. The
// latency runs from building the wire body to the parsed JSON reply.
// A refused or broken request returns a plain error; a reply that
// contradicts what was sent returns an errGate error.
func (c *client) save() (time.Duration, []server.NamedField, error) {
	fields := c.src.next(c.saves)
	step := c.saves
	c.saves++
	start := time.Now()
	c.body.Reset()
	if err := server.WriteFields(&c.body, fields); err != nil {
		return 0, nil, fmt.Errorf("save: encode: %w", err)
	}
	resp, err := c.request(http.MethodPost, "/save?step="+strconv.Itoa(step)+"&codec="+c.w.codec, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		c.lastGen = 0
		return 0, nil, fmt.Errorf("save: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.lastGen = 0
		return 0, nil, refusal("save", resp)
	}
	var res server.SaveResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return 0, nil, gateErr("save: bad reply: %v", err)
	}
	lat := time.Since(start)

	if c.lastGen != 0 && res.Generation != c.lastGen+1 {
		return 0, nil, gateErr("save: generation %d after %d", res.Generation, c.lastGen)
	}
	if res.Fields != len(fields) || res.Step != step || res.Codec != c.w.codec {
		return 0, nil, gateErr("save: reply %+v for %d fields at step %d", res, len(fields), step)
	}
	c.lastGen = res.Generation
	c.expected = fields
	c.rawPerSave = rawBytes(fields)
	return lat, fields, nil
}

// restore fetches the latest generation and checks it against the
// fields of the last save. The latency runs from the request to the
// last field decoded.
func (c *client) restore() (time.Duration, []server.NamedField, error) {
	start := time.Now()
	resp, err := c.request(http.MethodGet, "/restore", nil)
	if err != nil {
		return 0, nil, fmt.Errorf("restore: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, refusal("restore", resp)
	}
	got, err := server.ReadFields(resp.Body)
	if err != nil {
		return 0, nil, gateErr("restore: %v", err)
	}
	lat := time.Since(start)

	if gen := resp.Header.Get("X-Generation"); c.lastGen != 0 && gen != strconv.FormatUint(c.lastGen, 10) {
		return 0, nil, gateErr("restore: generation %s, last save was %d", gen, c.lastGen)
	}
	if err := c.check(got); err != nil {
		return 0, nil, err
	}
	return lat, got, nil
}

// check compares restored fields with the last saved ones: bit for bit
// on a lossless workload, within the workload's Eq. 6 bound otherwise.
func (c *client) check(got []server.NamedField) error {
	errMax, err := compareFields(c.expected, got, c.w.maxRelErr)
	if err != nil {
		return err
	}
	c.maxRelErr = math.Max(c.maxRelErr, errMax)
	return nil
}

// compareFields returns the largest relative error over want and got,
// failing the gate on a mismatch in names, shapes or content.
func compareFields(want, got []server.NamedField, bound float64) (float64, error) {
	if len(got) != len(want) {
		return 0, gateErr("restore: %d fields, saved %d", len(got), len(want))
	}
	var worst float64
	for i, nf := range want {
		g := got[i]
		if g.Name != nf.Name || !g.Field.SameShape(nf.Field) {
			return 0, gateErr("restore: field %d is %q %v, saved %q %v", i, g.Name, g.Field.Shape(), nf.Name, nf.Field.Shape())
		}
		if bound == 0 {
			if !bitEqual(nf.Field.Data(), g.Field.Data()) {
				return 0, gateErr("restore: field %q differs from the saved bits", nf.Name)
			}
			continue
		}
		e, err := stats.MaxRelError(nf.Field.Data(), g.Field.Data())
		if err != nil {
			return 0, gateErr("restore: field %q: %v", nf.Name, err)
		}
		if !(e <= bound) {
			return 0, gateErr("restore: field %q relative error %.4g%% over the %.4g%% bound", nf.Name, 100*e, 100*bound)
		}
		worst = math.Max(worst, e)
	}
	return worst, nil
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sampleStorage records the tenant's store occupancy over the raw bytes
// of the generations it retains. Taken once per save/restore cycle, the
// samples smooth out where the last few mutations happened to fall.
func (c *client) sampleStorage() error {
	in, err := c.inspect()
	if err != nil {
		return err
	}
	c.storeRatios = append(c.storeRatios, float64(in.UsedBytes)/float64(int64(len(in.Generations))*c.rawPerSave))
	return nil
}

// opKind tells an afterOp hook which operation just completed.
type opKind int

const (
	opSave opKind = iota
	opRestore
	opAny
)

// afterOp runs after each successful measured operation, outside its
// latency (the traced run replays the operation through the layers).
type afterOp func(c *client, op opKind, fields []server.NamedField, lat time.Duration) error

// warmUp runs one untimed save and restore per client, one client
// after the other.
func warmUp(clients []*client, hook afterOp) error {
	for _, c := range clients {
		_, fields, err := c.save()
		if err == nil && hook != nil {
			err = hook(c, opSave, fields, 0)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		_, fields, err = c.restore()
		if err == nil && hook != nil {
			err = hook(c, opRestore, fields, 0)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// measure runs the clients' closed loops until d has passed: each
// saves, and restores after every restoreEvery saves. The clients take
// turns from one goroutine, so one request is in flight at a time and
// the daemon never competes with a second request for the CPUs. No
// operation starts after d; the phase ends when the last one
// completes. A refused operation is counted as failed and the loop goes
// on; a gate failure or a failing hook ends the run.
func measure(clients []*client, d time.Duration, hook afterOp) (time.Duration, error) {
	start := time.Now()
	running := func() bool { return time.Since(start) < d }
	for n := 1; running(); n++ {
		for _, c := range clients {
			if !running() {
				break
			}
			if err := c.op(opSave, hook); err != nil {
				return time.Since(start), err
			}
			if n%c.w.restoreEvery == 0 && running() {
				if err := c.op(opRestore, hook); err != nil {
					return time.Since(start), err
				}
				if err := c.sampleStorage(); err != nil {
					return time.Since(start), err
				}
			}
		}
	}
	return time.Since(start), nil
}

func (c *client) op(kind opKind, hook afterOp) error {
	c.attempted++
	var (
		lat    time.Duration
		fields []server.NamedField
		err    error
	)
	if kind == opSave {
		lat, fields, err = c.save()
	} else {
		lat, fields, err = c.restore()
	}
	if err != nil {
		if errors.Is(err, errGate) {
			return err
		}
		c.failed++
		return nil
	}
	if kind == opSave {
		c.saveLat = append(c.saveLat, lat)
	} else {
		c.restoreLat = append(c.restoreLat, lat)
	}
	c.rawMoved += rawBytes(fields)
	if hook != nil {
		return hook(c, kind, fields, lat)
	}
	return nil
}

// totals pools the measured results of all clients.
type totals struct {
	saveLat, restoreLat []time.Duration
	attempted, failed   int
	rawMoved            int64
	maxRelErr           float64
	storeRatios         []float64
}

func pool(clients []*client) totals {
	var t totals
	for _, c := range clients {
		t.saveLat = append(t.saveLat, c.saveLat...)
		t.restoreLat = append(t.restoreLat, c.restoreLat...)
		t.attempted += c.attempted
		t.failed += c.failed
		t.rawMoved += c.rawMoved
		t.maxRelErr = math.Max(t.maxRelErr, c.maxRelErr)
		t.storeRatios = append(t.storeRatios, c.storeRatios...)
	}
	return t
}
