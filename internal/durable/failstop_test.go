//go:build linux

package durable

import (
	"flag"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestAppenderStopsAfterFailedWrite: a short write (here EFBIG from a
// file size limit; ENOSPC behaves alike) leaves a partial line without
// its newline. A record appended after it would join that line and be
// lost on load, so the Appender must refuse every later append. The
// limit is per process, so the appends run in a child: this test
// binary re-run with the arguments "fsize-child <path>".
func TestAppenderStopsAfterFailedWrite(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == "fsize-child" {
		appendPastFileSizeLimit(t, args[1])
		return
	}
	path := filepath.Join(t.TempDir(), "journal")
	out, err := exec.Command(os.Args[0], "-test.run=^TestAppenderStopsAfterFailedWrite$", "fsize-child", path).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := Lines(data, ParseFrame)
	if err != nil || !torn || len(recs) != 1 || string(recs[0].Payload) != `"a"` {
		t.Fatalf("after a failed append: records %+v, torn=%v, err=%v; want only \"a\", torn\n%q", recs, torn, err, data)
	}
}

// appendPastFileSizeLimit appends record "a", then record "b" under a
// soft RLIMIT_FSIZE a few bytes past "a", then record "c" with the
// limit restored.
func appendPastFileSizeLimit(t *testing.T, path string) {
	app, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Append("rec", "a"); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	// Past the limit the kernel sends SIGXFSZ, which kills the process
	// by default; ignored, the write fails with EFBIG instead.
	signal.Ignore(syscall.SIGXFSZ)
	tight := lim
	tight.Cur = uint64(st.Size()) + 8
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &tight); err != nil {
		t.Fatal(err)
	}
	err = app.Append("rec", strings.Repeat("b", 64))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("append past the file size limit succeeded")
	}
	if err := app.Append("rec", "c"); err == nil {
		t.Fatal("append after a failed write succeeded; its record joined the partial line")
	}
}
