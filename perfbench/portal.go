package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Portal workload settings.
const (
	// pollInterval is the fixed GET /jobs/{id} polling period; it must
	// stay well under 5% of the median job time (a run notes it if not).
	pollInterval = 2 * time.Millisecond
	// jobsPerEpoch is one owner's job sequence: a first job (Program
	// compile, ledger create), then three returning-owner uploads of the
	// same unit; the first repeat's bytes must match the first job's.
	// First-job and returning-owner ops run at 1:3.
	jobsPerEpoch = 4
	// rssAtJobs fixes the work after which the portal's peak RSS is
	// read: it holds every owner's Session and every published dataset,
	// so its footprint grows with jobs done, and a faster portal must not
	// read as a bigger one.
	rssAtJobs = 40
	// rateSlices is how many slices of the window lines_per_s is the
	// median rate of.
	rateSlices = 5
	adminToken = "perfbench-admin"
	researcher = "perfbench-researcher"
)

// portalProc is a running confportal child.
type portalProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startPortal starts confportal on a fresh state directory and waits
// until GET /readyz answers 200; it returns the time that took.
func startPortal(ctx context.Context, cfg config, client *http.Client, stateDir string) (*portalProc, float64, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		start := time.Now()
		cmd := exec.Command(filepath.Join(cfg.Bin, "confportal"),
			"-addr", addr, "-state-dir", stateDir, "-admin-token", adminToken,
			"-researcher", researcher+"=bench", "-owner-rate", "0",
			"-job-workers", strconv.Itoa(cfg.Clients), "-drain-notice", "0s", "-grace", "5s", "-drain-jobs", "10s")
		cmd.SysProcAttr = diesWithParent()
		if err := cmd.Start(); err != nil {
			return nil, 0, err
		}
		p := &portalProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
		go func() { _ = cmd.Wait(); close(p.done) }()
		ready, err := p.waitReady(ctx, client)
		if err == nil {
			return p, ready.Sub(start).Seconds(), nil
		}
		lastErr = err
		p.stop()
	}
	return nil, 0, fmt.Errorf("confportal did not become ready: %w", lastErr)
}

// waitReady polls /readyz until it answers 200, the process exits, or
// 30 seconds pass.
func (p *portalProc) waitReady(ctx context.Context, client *http.Client) (time.Time, error) {
	limit := time.Now().Add(30 * time.Second)
	for time.Now().Before(limit) {
		select {
		case <-p.done:
			return time.Time{}, errors.New("confportal exited during start-up")
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Time{}, errors.New("timed out waiting for /readyz")
}

// stop drains the portal with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (p *portalProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu returns a stopped portal's user plus sys CPU seconds.
func (p *portalProc) cpu() float64 {
	ru := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape reads GET /metrics.
func (p *portalProc) scrape(client *http.Client) (counters, error) {
	req, err := http.NewRequest(http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Admin-Token", adminToken)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return readScrape(resp.Body)
}

// getJSON performs a GET with one auth header and decodes a 200 answer.
func getJSON(client *http.Client, url, header, value string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set(header, value)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if s, ok := v.(*string); ok {
		*s = string(body)
		return nil
	}
	return json.Unmarshal(body, v)
}

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	State    string   `json:"state"`
	Problems []string `json:"problems"`
	Error    string   `json:"error"`
	Dataset  string   `json:"dataset_id"`
	Progress struct {
		FilesFailed      int `json:"files_failed"`
		FilesQuarantined int `json:"files_quarantined"`
	} `json:"progress"`
}

// portalOp is one job as one client saw it.
type portalOp struct {
	unit     *unit
	epoch, j int
	end      time.Time
	latency  float64
	submit   float64
	polls    int
	view     jobView
	problems []string
}

// runJob submits one job and polls it to a terminal state.
func runJob(client *http.Client, base string, body []byte) (op portalOp) {
	start := time.Now()
	defer func() { op.end = time.Now(); op.latency = op.end.Sub(start).Seconds() }()
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		op.problems = append(op.problems, "POST /jobs: "+err.Error())
		return op
	}
	var sub struct {
		ID    string `json:"job_id"`
		Token string `json:"job_token"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	op.submit = time.Since(start).Seconds()
	if resp.StatusCode != http.StatusAccepted {
		op.problems = append(op.problems, "POST /jobs: "+resp.Status)
		return op
	}
	if derr != nil {
		op.problems = append(op.problems, "POST /jobs: "+derr.Error())
		return op
	}
	for {
		time.Sleep(pollInterval)
		op.polls++
		if err := getJSON(client, base+"/jobs/"+sub.ID, "X-Job-Token", sub.Token, &op.view); err != nil {
			op.problems = append(op.problems, err.Error())
			return op
		}
		switch op.view.State {
		case "done":
			return op
		case "failed", "cancelled":
			op.problems = append(op.problems, fmt.Sprintf("job %s: %s %s %v", sub.ID, op.view.State, op.view.Error, op.view.Problems))
			return op
		}
	}
}

// runPortalJobs: confportal as a child, cfg.Clients closed-loop clients each
// submitting one owner's unit per job and polling it to completion.
func runPortalJobs(ctx context.Context, cfg config, cs *corpusSet) (*result, error) {
	client := &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: cfg.Clients, MaxIdleConnsPerHost: cfg.Clients},
	}
	defer client.CloseIdleConnections()
	stateDir := filepath.Join(cfg.Work, "state")
	res := &result{Layers: map[string]float64{}}
	// setup_s is the CPU seconds of one portal life without a job: start,
	// replay of an empty state directory, /readyz 200, drain and exit.
	// The CPU comes from an exited portal's rusage, so the run starts one
	// portal more than it measures and keeps the last for the workload.
	var p *portalProc
	for r := 0; r <= cheapSetupReps; r++ {
		if p != nil {
			p.stop()
			res.Setup = append(res.Setup, p.cpu())
		}
		var d float64
		var err error
		if p, d, err = startPortal(ctx, cfg, client, stateDir); err != nil {
			return nil, err
		}
		if r < cheapSetupReps {
			res.SetupWall = append(res.SetupWall, d)
		}
	}
	defer p.stop()
	pid := p.cmd.Process.Pid

	// Trace mode splits the window into quarters: untraced, traced,
	// untraced, traced. /metrics is scraped at every boundary, and the
	// traced quarters' deltas give the per-layer numbers.
	start := time.Now()
	end := cfg.deadline()
	quarter := end.Sub(start) / 4
	tracedAt := func(t time.Time) bool {
		if !cfg.Trace {
			return false
		}
		q := int(t.Sub(start) / quarter)
		return q%2 == 1 || q >= 4
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var ops []portalOp
	var rss int64
	var rssErr error
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(end); k++ {
				epoch := c + cfg.Clients*(k/jobsPerEpoch)
				j := k % jobsPerEpoch
				u := cs.Units[epoch%len(cs.Units)]
				salt := u.Salt + "#" + strconv.Itoa(epoch)
				body, err := json.Marshal(map[string]any{
					"label": fmt.Sprintf("perfbench e%d j%d %s", epoch, j, u.Name),
					"salt":  salt,
					"files": u.Files,
				})
				op := portalOp{unit: u, epoch: epoch, j: j}
				if err != nil {
					op.problems = []string{err.Error()}
				} else {
					op = runJob(client, p.base, body)
					op.unit, op.epoch, op.j = u, epoch, j
				}
				mu.Lock()
				ops = append(ops, op)
				if len(ops) == rssAtJobs {
					rss, rssErr = procPeakRSSKB(pid)
				}
				mu.Unlock()
			}
		}(c)
	}
	var scrapes []counters
	var scrapeErr error
	if cfg.Trace {
		for q := 1; q <= 3 && scrapeErr == nil; q++ {
			time.Sleep(time.Until(start.Add(time.Duration(q) * quarter)))
			var s counters
			s, scrapeErr = p.scrape(client)
			scrapes = append(scrapes, s)
		}
	}
	wg.Wait()
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	last := end
	for _, op := range ops {
		if op.end.After(last) {
			last = op.end
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	if rss == 0 && rssErr == nil { // fewer than rssAtJobs jobs ran
		rss, rssErr = procPeakRSSKB(pid)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if cfg.Trace {
		s, err := p.scrape(client)
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, s)
	}

	// Output checks, after the window: every job published every file,
	// a repeat upload returned the first upload's bytes, and no identity
	// token survived.
	fetch := func(ds string) (map[string]string, error) {
		var names []string
		if err := getJSON(client, p.base+"/datasets/"+ds+"/files", "X-API-Key", researcher, &names); err != nil {
			return nil, err
		}
		out := make(map[string]string, len(names))
		for _, n := range names {
			var text string
			if err := getJSON(client, p.base+"/datasets/"+ds+"/files/"+n, "X-API-Key", researcher, &text); err != nil {
				return nil, err
			}
			out[n] = text
		}
		return out, nil
	}
	first := map[int]map[string]string{}  // epoch → first job's outputs
	repeat := map[int]map[string]string{} // epoch → repeat job's outputs
	for i := range ops {
		op := &ops[i]
		if len(op.problems) > 0 {
			continue
		}
		if op.j > 1 {
			op.problems = publishedProblems(client, p.base, op)
			continue
		}
		out, err := fetch(op.view.Dataset)
		if err != nil {
			op.problems = append(op.problems, err.Error())
			continue
		}
		if len(out) != len(op.unit.Names) {
			op.problems = append(op.problems, fmt.Sprintf("%s: %d of %d files published", op.unit.Name, len(out), len(op.unit.Names)))
		}
		if op.j == 1 {
			repeat[op.epoch] = out
			continue
		}
		first[op.epoch] = out
		for _, tok := range identityLeaks(out, op.unit.Identity) {
			op.problems = append(op.problems, fmt.Sprintf("%s: identity token %q survives", op.unit.Name, tok))
		}
	}
	for i := range ops {
		op := &ops[i]
		want, ok1 := first[op.epoch]
		got, ok2 := repeat[op.epoch]
		if op.j != 1 || !ok1 || !ok2 {
			continue // a failed first or repeat job is counted already
		}
		for _, d := range diffOutputs(got, want) {
			op.problems = append(op.problems, "repeat upload: "+d)
		}
	}

	var tracedSubmit []float64
	var tracedPolls, tracedJobs, failedFiles, quarantined float64
	for _, op := range ops {
		res.Tally.op(op.problems...)
		lines := float64(op.unit.Lines)
		if tracedAt(op.end) {
			tracedJobs++
			tracedSubmit = append(tracedSubmit, op.submit)
			tracedPolls += float64(op.polls)
			failedFiles += float64(op.view.Progress.FilesFailed)
			quarantined += float64(op.view.Progress.FilesQuarantined)
			res.TracedLines += lines
			continue
		}
		res.Ops = append(res.Ops, op.latency)
		res.Lines += lines
	}
	window := last.Sub(start).Seconds()
	res.Busy = window
	res.CPU = cpu1 - cpu0
	res.PeakRSSKB = rss
	if !cfg.Trace {
		// Rates per fifth of the window, each job booked where it ended;
		// the last fifth runs until the final job ended.
		slice := end.Sub(start) / rateSlices
		lines := make([]float64, rateSlices)
		for _, op := range ops {
			k := int(op.end.Sub(start) / slice)
			if k >= rateSlices {
				k = rateSlices - 1
			}
			lines[k] += float64(op.unit.Lines)
		}
		for k, l := range lines {
			secs := slice.Seconds()
			if k == rateSlices-1 {
				secs = window - float64(rateSlices-1)*slice.Seconds()
			}
			res.Rates = append(res.Rates, rate(l, secs))
		}
	}
	if cfg.Trace {
		// Quarters 1 and 3 were traced; the last one runs until the final
		// job ended.
		res.Busy = 2 * quarter.Seconds()
		res.TracedBusy = window - res.Busy
		delta := scrapes[1].minus(scrapes[0])
		delta.add(scrapes[3].minus(scrapes[2]))
		engineLayers(delta, int(tracedJobs), res.Layers)
		if tracedJobs > 0 {
			res.Layers["portal.submit_s_p50"] = median(tracedSubmit)
			res.Layers["portal.polls_per_job"] = tracedPolls / tracedJobs
			res.Layers["portal.request_busy_s"] = delta["confanon_portal_request_seconds_sum"] / tracedJobs
		}
		if n := delta["confanon_jobs_wait_seconds_count"]; n > 0 {
			res.Layers["jobs.wait_s_mean"] = delta["confanon_jobs_wait_seconds_sum"] / n
		}
		if n := delta["confanon_jobs_run_seconds_count"]; n > 0 {
			res.Layers["jobs.run_s_mean"] = delta["confanon_jobs_run_seconds_sum"] / n
		}
		res.Layers["jobs.rejected"] = delta.family("confanon_jobs_rejected_total")
		res.Layers["batch.files_failed"] = failedFiles
		res.Layers["batch.files_quarantined"] = quarantined
	}
	if lat := summarize(res.Ops); lat.N > 0 && pollInterval.Seconds() > 0.05*lat.P50 {
		res.Notes = append(res.Notes, fmt.Sprintf("poll interval %v is not under 5%% of the median job time %.4fs", pollInterval, lat.P50))
	}
	return res, nil
}

// publishedProblems checks that a done job published every file of its
// unit (by listing its dataset).
func publishedProblems(client *http.Client, base string, op *portalOp) []string {
	var names []string
	if err := getJSON(client, base+"/datasets/"+op.view.Dataset+"/files", "X-API-Key", researcher, &names); err != nil {
		return []string{err.Error()}
	}
	if len(names) != len(op.unit.Names) {
		return []string{fmt.Sprintf("%s: %d of %d files published", op.unit.Name, len(names), len(op.unit.Names))}
	}
	return nil
}
