package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"branchscope/internal/obs"
	"branchscope/internal/runstore"
)

// cmdList prints one line per archived run under a directory.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("bsctl list", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("list takes exactly one archive directory")
	}
	runs, err := runstore.List(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		fmt.Println("no archived runs")
		return nil
	}
	for _, m := range runs {
		fmt.Printf("%s  program=%s seed=%d quick=%v tasks=%d %s\n",
			m.RunID, m.Identity.Program, m.Identity.BaseSeed, m.Identity.Quick,
			len(m.Outcomes), countsLine(m.Counts))
	}
	return nil
}

// countsLine renders outcome counts in sorted-key order ("ok=6").
func countsLine(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	return b.String()
}

// cmdShow renders one run's manifest: identity, outcomes, artifacts
// with digests — and, when the run archived a ledger, its record count
// and torn-tail state.
func cmdShow(args []string) error {
	fs := flag.NewFlagSet("bsctl show", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("show takes exactly one run directory or manifest path")
	}
	dir, m, err := runstore.LoadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("run     %s\n", m.RunID)
	fmt.Printf("program %s  seed=%d quick=%v\n", m.Identity.Program, m.Identity.BaseSeed, m.Identity.Quick)
	fmt.Printf("tasks   %v\n", m.Identity.Tasks)
	if len(m.Identity.Config) > 0 {
		keys := make([]string, 0, len(m.Identity.Config))
		for k := range m.Identity.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("config  ")
		for i, k := range keys {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s=%v", k, m.Identity.Config[k])
		}
		fmt.Println()
	}
	fmt.Printf("counts  %s\n", countsLine(m.Counts))
	for _, b := range m.Breakers {
		fmt.Printf("breaker %s state=%s skipped=%d\n", b.Family, b.State, b.Skipped)
	}
	fmt.Println("outcomes:")
	for _, o := range m.Outcomes {
		line := fmt.Sprintf("  %-12s %-10s seed=%d", o.ID, o.Outcome, o.Seed)
		if o.Attempts > 1 {
			line += fmt.Sprintf(" attempts=%d", o.Attempts)
		}
		if o.Error != "" {
			line += " error=" + o.Error
		}
		fmt.Println(line)
	}
	fmt.Println("artifacts:")
	for _, a := range m.Artifacts {
		switch {
		case a.Volatile:
			fmt.Printf("  %-16s %-12s (volatile)\n", a.Name, a.Kind)
		default:
			fmt.Printf("  %-16s %-12s %s\n", a.Name, a.Kind, a.Digest)
		}
	}
	// An archived ledger gets its tail checked here too: show is often
	// the first stop after a crashed run.
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	if f, err := os.Open(ledgerPath); err == nil {
		recs, torn, rerr := obs.ReadLedger(f)
		f.Close()
		switch {
		case rerr != nil:
			fmt.Printf("ledger: unreadable: %v\n", rerr)
		case torn:
			fmt.Printf("ledger: %d records — WARNING: torn final record (crash mid-append), ignored\n", len(recs))
		default:
			fmt.Printf("ledger: %d records\n", len(recs))
		}
	}
	return nil
}

// cmdTail prints a run-provenance ledger's records, one line each,
// tolerating (and flagging) a torn final record. With -f it keeps
// polling the file and prints records as tasks complete — following a
// live run's ledger from another terminal.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("bsctl tail", flag.ExitOnError)
	follow := fs.Bool("f", false, "follow the ledger, printing new records as they land")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval with -f")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("tail takes exactly one ledger path")
	}
	path := fs.Arg(0)

	p := &tailPrinter{path: path, follow: *follow}
	if err := p.emit(); err != nil {
		return err
	}
	if *follow {
		followLedger(p.emit, *interval, time.Sleep, func() bool { return true })
	}
	return nil
}

// tailPrinter incrementally prints a ledger's records across repeated
// reads of the same file, tolerating truncation between reads (a new
// run re-creating the ledger restarts the tail from the top).
type tailPrinter struct {
	path    string
	follow  bool
	printed int
	warned  bool
}

func (p *tailPrinter) emit() error {
	data, err := os.ReadFile(p.path)
	if err != nil {
		return err
	}
	recs, torn, err := obs.ReadLedger(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if len(recs) < p.printed {
		// The ledger shrank under us: a new run re-created the file.
		// Restart from the top instead of slicing past the end.
		fmt.Fprintln(os.Stderr, "bsctl: ledger truncated (new run?), restarting from the top")
		p.printed = 0
	}
	for _, rec := range recs[p.printed:] {
		line := fmt.Sprintf("%-12s %-10s seed=%d", rec.ID, rec.Outcome, rec.Seed)
		if rec.RunID != "" {
			line += " run=" + rec.RunID
		}
		if rec.Error != "" {
			line += " error=" + rec.Error
		}
		fmt.Println(line)
	}
	p.printed = len(recs)
	if torn && !p.follow && !p.warned {
		// A torn tail mid-follow is normal (an append in flight);
		// only a final torn record is worth a warning.
		fmt.Fprintln(os.Stderr, "bsctl: WARNING: torn final record (crash mid-append), ignored")
		p.warned = true
	}
	return nil
}

// maxTailBackoff caps the follow loop's retry backoff.
const maxTailBackoff = 5 * time.Second

// followLedger drives tail -f: re-emit at interval, and survive
// transient read errors — the file mid-rename during an atomic rewrite,
// a short read racing an append, a checksum caught on a partially
// flushed line — with capped doubling backoff instead of exiting on the
// first one. The outage is reported once on entry and once on recovery,
// not per retry. sleep and cont are seams for tests (time.Sleep and an
// always-true predicate in production).
func followLedger(emit func() error, interval time.Duration, sleep func(time.Duration), cont func() bool) {
	delay := interval
	down := false
	for cont() {
		sleep(delay)
		if err := emit(); err != nil {
			if !down {
				fmt.Fprintf(os.Stderr, "bsctl: transient read error (retrying): %v\n", err)
				down = true
			}
			delay *= 2
			if delay > maxTailBackoff {
				delay = maxTailBackoff
			}
			continue
		}
		if down {
			fmt.Fprintln(os.Stderr, "bsctl: ledger readable again")
			down = false
		}
		delay = interval
	}
}
