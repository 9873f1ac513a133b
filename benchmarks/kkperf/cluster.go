package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"knightking/internal/graph"
)

// clusterSpec is one job for a real cluster: a kkcoord process and two
// kkrank processes (plus spares) on loopback TCP.
type clusterSpec struct {
	graphPath string // binary CSR; every rank loads its own slice
	walkers   int
	length    int
	seed      uint64
	ckptEvery int
	dump      bool // have the ranks write their walks, for the path check
	// killAfter, when positive, SIGKILLs rank 1 once a checkpoint of at
	// least that superstep is committed; one spare rank stands by.
	killAfter int
}

// clusterSummary is kkcoord's -json line.
type clusterSummary struct {
	Attempts     int   `json:"attempts"`
	Failovers    int64 `json:"failovers"`
	Iterations   int   `json:"iterations"`
	Steps        int64 `json:"steps"`
	Terminations int64 `json:"terminations"`
	Messages     int64 `json:"messages"`
	Bytes        int64 `json:"bytes"`
}

// clusterOutcome is what one job cost, seen from outside the processes.
type clusterOutcome struct {
	sum   clusterSummary
	waitS float64 // spawn of the coordinator -> summary in hand
	walkS float64 // last start-barrier release -> job done (coordinator's clock)
	rssMB float64 // coordinator + every rank process

	gatherMS        float64 // spawn -> every rank seated
	assignToStartMS float64 // assignment -> start barrier: slice load + mesh dial
	resultGatherMS  float64 // first rank done -> summary in hand

	detectMS float64 // kill -> coordinator declares the failover
	resumeMS float64 // kill -> start barrier of the next attempt
	dumpDir  string
}

// logClock reads the time of day kkcoord's logger printed (local time,
// microseconds) as an offset from ref.
func logClock(line string, ref time.Time) (time.Duration, string, bool) {
	rest, ok := strings.CutPrefix(line, "kkcoord: ")
	if !ok || len(rest) < 16 {
		return 0, "", false
	}
	t, err := time.ParseInLocation("15:04:05.000000", rest[:15], time.Local)
	if err != nil {
		return 0, "", false
	}
	r := ref.Local()
	midnight := time.Date(r.Year(), r.Month(), r.Day(), 0, 0, 0, 0, time.Local)
	at := midnight.Add(time.Duration(t.Hour())*time.Hour + time.Duration(t.Minute())*time.Minute +
		time.Duration(t.Second())*time.Second + time.Duration(t.Nanosecond()))
	d := at.Sub(ref)
	if d < -12*time.Hour { // the job ran over midnight
		d += 24 * time.Hour
	}
	return d, rest[16:], true
}

// runClusterJob spawns the processes, waits for the summary and reads the
// coordinator's log for the control-plane split. Every process it starts
// has exited when it returns.
func runClusterJob(ctx context.Context, rec *recorder, parent int, trace string, ps *procs, binDir, workDir string, spec clusterSpec) (*clusterOutcome, error) {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	out := &clusterOutcome{}
	args := []string{
		"-graph", spec.graphPath, "-binary", "-alg", "deepwalk", "-biased",
		"-length", strconv.Itoa(spec.length), "-walkers", strconv.Itoa(spec.walkers),
		"-seed", strconv.FormatUint(spec.seed, 10), "-workers", strconv.Itoa(workersPerRank),
		"-ranks", strconv.Itoa(ranks), "-control", "127.0.0.1:0",
		"-checkpoint-dir", filepath.Join(workDir, "ckpt"), "-checkpoint-every", strconv.Itoa(spec.ckptEvery),
		"-addr-file", filepath.Join(workDir, "coord.addr"), "-gather-timeout", "60s", "-json",
	}
	if spec.dump {
		out.dumpDir = filepath.Join(workDir, "dump")
		args = append(args, "-dump-dir", out.dumpDir)
	}
	jobSpan := rec.begin(parent, trace, "coord", "cluster job")
	defer rec.end(jobSpan)

	spawn := time.Now()
	coordProc, err := ps.start(ctx, filepath.Join(workDir, "summary.json"), filepath.Join(binDir, "kkcoord"), args...)
	if err != nil {
		return nil, err
	}
	var rankProcs []*child
	defer func() {
		coordProc.kill()
		for _, r := range rankProcs {
			r.kill()
		}
	}()
	gather := rec.begin(jobSpan, trace, "coord", "spawn and gather")
	addr, err := pollFile(ctx, filepath.Join(workDir, "coord.addr"), coordProc)
	if err != nil {
		return nil, err
	}
	nRanks := ranks
	if spec.killAfter > 0 {
		nRanks++ // the spare
	}
	for i := 0; i < nRanks; i++ {
		r, err := ps.start(ctx, "", filepath.Join(binDir, "kkrank"), "-coord", addr)
		if err != nil {
			return nil, err
		}
		rankProcs = append(rankProcs, r)
	}
	rec.end(gather)

	var killAt time.Time
	var victim *child
	if spec.killAfter > 0 {
		if victim, err = killRankOne(ctx, filepath.Join(workDir, "ckpt"), spec.killAfter, coordProc, rankProcs); err != nil {
			return nil, err
		}
		killAt = time.Now()
		victim.kill()
	}

	wait := rec.begin(jobSpan, trace, "coord", "wait for summary")
	err = coordProc.wait(ctx)
	exit := time.Now()
	rec.end(wait)
	if err != nil {
		return nil, fmt.Errorf("kkcoord: %v\n%s", err, coordProc.log())
	}
	out.waitS = exit.Sub(spawn).Seconds()
	raw, err := os.ReadFile(filepath.Join(workDir, "summary.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &out.sum); err != nil {
		return nil, fmt.Errorf("kkcoord summary %q: %w", raw, err)
	}
	// Ranks exit once the coordinator tells them to stop; a rank that does
	// not is a failed operation, and the deferred kill reaps it.
	out.rssMB = coordProc.rssMB()
	for i, r := range rankProcs {
		if err := r.wait(ctx); err != nil && r != victim {
			return nil, fmt.Errorf("kkrank %d: %v\n%s", i, err, r.log())
		}
		out.rssMB += r.rssMB()
	}

	// The control-plane split, from the coordinator's own timestamps.
	var seated, assign, firstDone, done time.Duration
	var starts []time.Duration
	var detect time.Duration
	sc := bufio.NewScanner(strings.NewReader(coordProc.log()))
	for sc.Scan() {
		at, msg, ok := logClock(sc.Text(), spawn)
		if !ok {
			continue
		}
		switch {
		case strings.Contains(msg, "seated as rank") && assign == 0:
			seated = at
		case strings.Contains(msg, ": assigning ") && assign == 0:
			assign = at
		case strings.Contains(msg, "releasing start barrier"):
			starts = append(starts, at)
		case strings.HasPrefix(msg, "failover ") && detect == 0:
			detect = at
		case strings.HasPrefix(msg, "rank ") && strings.Contains(msg, " done (") && firstDone == 0:
			firstDone = at
		case strings.HasPrefix(msg, "job done"):
			done = at
		}
	}
	if len(starts) == 0 || done == 0 || assign == 0 || firstDone == 0 {
		return nil, fmt.Errorf("kkcoord log lacks the start/done lines:\n%s", coordProc.log())
	}
	out.gatherMS = seated.Seconds() * 1e3
	out.assignToStartMS = (starts[0] - assign).Seconds() * 1e3
	out.walkS = (done - starts[len(starts)-1]).Seconds()
	out.resultGatherMS = (exit.Sub(spawn) - firstDone).Seconds() * 1e3
	if spec.killAfter > 0 {
		if len(starts) < 2 || detect == 0 || out.sum.Failovers < 1 {
			return nil, fmt.Errorf("killed rank 1 but the coordinator shows no failover:\n%s", coordProc.log())
		}
		kill := killAt.Sub(spawn)
		out.detectMS = (detect - kill).Seconds() * 1e3
		out.resumeMS = (starts[1] - kill).Seconds() * 1e3
		// Failover attempts restart the walk from a checkpoint, so walkS
		// covers the last attempt only and is not a throughput.
		out.walkS = 0
	}
	if out.dumpDir != "" {
		// The dump outlives workDir's removal only if moved aside.
		keep := workDir + "-dump"
		if err := os.Rename(out.dumpDir, keep); err != nil {
			return nil, err
		}
		out.dumpDir = keep
	}
	return out, nil
}

// killRankOne waits for a committed checkpoint at superstep >= after, then
// returns the process seated as rank 1.
func killRankOne(ctx context.Context, ckptDir string, after int, coordProc *child, rankProcs []*child) (*child, error) {
	for {
		entries, _ := os.ReadDir(ckptDir) // not there until the first snapshot
		for _, e := range entries {
			if it, ok := strings.CutPrefix(e.Name(), "ckpt-"); ok {
				if n, err := strconv.Atoi(it); err == nil && n >= after {
					for _, r := range rankProcs {
						if strings.Contains(r.log(), fmt.Sprintf("rank 1/%d attempt 1 prepared", ranks)) {
							return r, nil
						}
					}
					return nil, fmt.Errorf("no kkrank logged being rank 1")
				}
			}
		}
		if coordProc.exited() {
			return nil, fmt.Errorf("the job finished before a checkpoint at superstep %d was committed:\n%s", after, coordProc.log())
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("waiting for checkpoint %d: %w", after, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// mergeDumps reads the per-rank "<walkerID> v1 v2 ..." files and returns
// the paths in walker-ID order.
func mergeDumps(dir string) ([][]graph.VertexID, error) {
	files, err := filepath.Glob(filepath.Join(dir, "walks-rank*.txt"))
	if err != nil {
		return nil, err
	}
	type walk struct {
		id   int
		path []graph.VertexID
	}
	var walks []walk
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			id, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("%s: bad walker id in %q", f, line)
			}
			w := walk{id: id, path: make([]graph.VertexID, 0, len(fields)-1)}
			for _, tok := range fields[1:] {
				v, err := strconv.ParseUint(tok, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("%s: bad vertex in %q", f, line)
				}
				w.path = append(w.path, graph.VertexID(v))
			}
			walks = append(walks, w)
		}
	}
	sort.Slice(walks, func(i, j int) bool { return walks[i].id < walks[j].id })
	paths := make([][]graph.VertexID, len(walks))
	for i, w := range walks {
		if w.id != i {
			return nil, fmt.Errorf("walker %d missing or dumped twice", i)
		}
		paths[i] = w.path
	}
	return paths, nil
}

// writeBinaryGraph writes g as binary CSR and returns the file size.
func writeBinaryGraph(path string, g *graph.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteBinary(w, g); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
