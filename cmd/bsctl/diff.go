package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"branchscope/internal/runstore"
)

// cmdDiff structurally compares two archived runs: manifest identity,
// outcome vectors, artifact digests, and the exported result rows.
// Byte-identical runs produce no output and exit 0 — the property CI's
// archive smoke asserts. Volatile artifacts (wall clocks, live slots)
// are skipped unless -all asks for them.
func cmdDiff(args []string) (bool, error) {
	fs := flag.NewFlagSet("bsctl diff", flag.ExitOnError)
	all := fs.Bool("all", false, "also diff volatile artifacts (leakage report headline numbers)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return false, errors.New("diff takes exactly two run directories or manifest paths")
	}
	dirA, ma, err := runstore.LoadRun(fs.Arg(0))
	if err != nil {
		return false, err
	}
	dirB, mb, err := runstore.LoadRun(fs.Arg(1))
	if err != nil {
		return false, err
	}

	diffs := diffManifests(ma, mb)
	rows, err := diffExports(dirA, dirB)
	if err != nil {
		return false, err
	}
	diffs = append(diffs, rows...)
	if *all {
		leak, err := diffLeakage(dirA, dirB)
		if err != nil {
			return false, err
		}
		diffs = append(diffs, leak...)
	}

	for _, d := range diffs {
		fmt.Println(d)
	}
	return len(diffs) > 0, nil
}

// diffManifests compares the deterministic manifest content.
func diffManifests(a, b runstore.Manifest) []string {
	var diffs []string
	if a.RunID != b.RunID {
		diffs = append(diffs, fmt.Sprintf("run_id: %s vs %s (different identities)", a.RunID, b.RunID))
	}
	ja, _ := json.Marshal(a.Identity)
	jb, _ := json.Marshal(b.Identity)
	if !bytes.Equal(ja, jb) {
		diffs = append(diffs, fmt.Sprintf("identity: %s vs %s", ja, jb))
	}

	for _, k := range unionKeys(a.Counts, b.Counts) {
		if a.Counts[k] != b.Counts[k] {
			diffs = append(diffs, fmt.Sprintf("counts[%s]: %d vs %d", k, a.Counts[k], b.Counts[k]))
		}
	}

	oa := outcomesByID(a.Outcomes)
	ob := outcomesByID(b.Outcomes)
	for _, id := range unionKeys(oa, ob) {
		x, okA := oa[id]
		y, okB := ob[id]
		switch {
		case !okA:
			diffs = append(diffs, fmt.Sprintf("outcome %s: only in %s", id, b.RunID))
		case !okB:
			diffs = append(diffs, fmt.Sprintf("outcome %s: only in %s", id, a.RunID))
		case x != y:
			diffs = append(diffs, fmt.Sprintf("outcome %s: %+v vs %+v", id, x, y))
		}
	}

	if len(a.Breakers) != 0 || len(b.Breakers) != 0 {
		ba, _ := json.Marshal(a.Breakers)
		bb, _ := json.Marshal(b.Breakers)
		if !bytes.Equal(ba, bb) {
			diffs = append(diffs, fmt.Sprintf("breakers: %s vs %s", ba, bb))
		}
	}

	aa := artifactsByName(a.Artifacts)
	ab := artifactsByName(b.Artifacts)
	for _, name := range unionKeys(aa, ab) {
		x, okA := aa[name]
		y, okB := ab[name]
		switch {
		case !okA:
			diffs = append(diffs, fmt.Sprintf("artifact %s: only in %s", name, b.RunID))
		case !okB:
			diffs = append(diffs, fmt.Sprintf("artifact %s: only in %s", name, a.RunID))
		case x.Volatile != y.Volatile:
			diffs = append(diffs, fmt.Sprintf("artifact %s: volatile=%v vs %v", name, x.Volatile, y.Volatile))
		case x.Digest != y.Digest:
			diffs = append(diffs, fmt.Sprintf("artifact %s: digest %s vs %s", name, x.Digest, y.Digest))
		}
	}
	return diffs
}

func outcomesByID(os []runstore.TaskOutcome) map[string]runstore.TaskOutcome {
	m := make(map[string]runstore.TaskOutcome, len(os))
	for _, o := range os {
		m[o.ID] = o
	}
	return m
}

func artifactsByName(as []runstore.Artifact) map[string]runstore.Artifact {
	m := make(map[string]runstore.Artifact, len(as))
	for _, a := range as {
		m[a.Name] = a
	}
	return m
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exportDoc is the subset of the experiments JSON export diff reads.
type exportDoc struct {
	Experiments []struct {
		ID    string            `json:"id"`
		Error string            `json:"error"`
		Rows  []json.RawMessage `json:"rows"`
	} `json:"experiments"`
}

// diffExports compares the structured result rows of the two runs'
// archived JSON exports, row by row — finer grained than the export
// digest: it names the experiment and row where the bytes diverge.
func diffExports(dirA, dirB string) ([]string, error) {
	da, okA, err := readExport(dirA)
	if err != nil {
		return nil, err
	}
	db, okB, err := readExport(dirB)
	if err != nil {
		return nil, err
	}
	if !okA || !okB {
		return nil, nil // absence is already reported as an artifact diff
	}
	type exp struct {
		err  string
		rows []json.RawMessage
	}
	byID := func(d exportDoc) map[string]exp {
		m := make(map[string]exp, len(d.Experiments))
		for _, e := range d.Experiments {
			m[e.ID] = exp{err: e.Error, rows: e.Rows}
		}
		return m
	}
	ea, eb := byID(da), byID(db)
	var diffs []string
	for _, id := range unionKeys(ea, eb) {
		x, okA := ea[id]
		y, okB := eb[id]
		switch {
		case !okA || !okB:
			diffs = append(diffs, fmt.Sprintf("export %s: present in only one run", id))
			continue
		case x.err != y.err:
			diffs = append(diffs, fmt.Sprintf("export %s: error %q vs %q", id, x.err, y.err))
			continue
		case len(x.rows) != len(y.rows):
			diffs = append(diffs, fmt.Sprintf("export %s: %d rows vs %d", id, len(x.rows), len(y.rows)))
			continue
		}
		for i := range x.rows {
			if !bytes.Equal(x.rows[i], y.rows[i]) {
				diffs = append(diffs, fmt.Sprintf("export %s row %d: %s vs %s", id, i, x.rows[i], y.rows[i]))
			}
		}
	}
	return diffs, nil
}

func readExport(dir string) (exportDoc, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, "export.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return exportDoc{}, false, nil
		}
		return exportDoc{}, false, err
	}
	var d exportDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return exportDoc{}, false, fmt.Errorf("%s/export.json: %w", dir, err)
	}
	return d, true, nil
}

// diffLeakage (-all) compares the archived leakage reports' headline
// channel-quality numbers and window counts. The report is a volatile
// artifact — under -parallel the live slot is last-writer-wins — which
// is exactly why it only diffs on request.
func diffLeakage(dirA, dirB string) ([]string, error) {
	la, okA, err := readLeakage(dirA)
	if err != nil {
		return nil, err
	}
	lb, okB, err := readLeakage(dirB)
	if err != nil {
		return nil, err
	}
	if !okA || !okB {
		return nil, nil
	}
	var diffs []string
	cmp := func(name string, a, b float64) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("leakage %s: %v vs %v", name, a, b))
		}
	}
	cmp("windows", float64(la.Windows), float64(lb.Windows))
	cmp("bits", float64(la.Bits), float64(lb.Bits))
	cmp("bit_error_rate", la.BitErrorRate, lb.BitErrorRate)
	cmp("mutual_information_bits", la.MutualInformationBits, lb.MutualInformationBits)
	cmp("capacity_bits", la.CapacityBits, lb.CapacityBits)
	cmp("snr", la.SNR, lb.SNR)
	return diffs, nil
}

type leakageDoc struct {
	Windows               uint64  `json:"windows"`
	Bits                  uint64  `json:"bits"`
	BitErrorRate          float64 `json:"bit_error_rate"`
	MutualInformationBits float64 `json:"mutual_information_bits"`
	CapacityBits          float64 `json:"capacity_bits"`
	SNR                   float64 `json:"snr"`
}

func readLeakage(dir string) (leakageDoc, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, "leakage.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return leakageDoc{}, false, nil
		}
		return leakageDoc{}, false, err
	}
	var d leakageDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return leakageDoc{}, false, fmt.Errorf("%s/leakage.json: %w", dir, err)
	}
	return d, true, nil
}
