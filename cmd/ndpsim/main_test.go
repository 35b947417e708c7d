package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny returns arguments for a fast simulation.
func tiny(extra ...string) []string {
	args := []string{
		"-mech", "NDPage", "-workload", "rnd", "-cores", "1",
		"-footprint", "33554432", "-memory", "268435456",
		"-warmup", "200", "-instructions", "1000",
	}
	return append(args, extra...)
}

func TestRunTextSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"system=ndp mechanism=NDPage", "instructions", "TLB miss rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(tiny("-json"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"Instructions\"") {
		t.Errorf("JSON output missing Instructions field:\n%.200s", out.String())
	}
}

// TestProfileFlagsWriteFiles: -cpuprofile and -memprofile must create
// non-empty pprof files covering the simulation.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run(tiny("-cpuprofile", cpu, "-memprofile", mem), &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not created: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCacheDir: -cache <dir> persists the run; the repeat invocation
// serves the identical result from disk.
func TestCacheDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var first, second bytes.Buffer
	if err := run(tiny("-json", "-cache", dir), &first); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v, %v; want exactly 1", entries, err)
	}
	if err := run(tiny("-json", "-cache", dir), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("cached re-run produced different output")
	}
}

// TestCacheBadURL: -cache takes a directory; a URL fails loudly
// instead of creating a directory tree named after it.
func TestCacheBadURL(t *testing.T) {
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	err := run(tiny("-cache", "http://host:8947"), &out)
	if err == nil || !strings.Contains(err.Error(), "-cache takes a directory") {
		t.Errorf("-cache with a URL: err = %v, want one saying -cache takes a directory", err)
	}
	if _, err := os.Stat("http:"); !os.IsNotExist(err) {
		t.Errorf("-cache with a URL created a directory: %v", err)
	}
}

// TestDefaultFootprintOutgrowingMemoryIsError: at 19 cores the default
// footprint, (19+cores)*512 MB, outgrows the default 16 GB of memory.
// The run must end in an error naming the cause, not a panic.
func TestDefaultFootprintOutgrowingMemoryIsError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-cores", "19", "-workload", "rnd", "-mech", "Radix", "-instructions", "1000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "out of physical memory") {
		t.Fatalf("run = %v, want an out-of-memory error", err)
	}
}

// TestMemoryNotHugeMultipleIsError: -memory must be a positive multiple
// of 2 MB; anything else ends in the validation error, not a panic in
// the physical allocator.
func TestMemoryNotHugeMultipleIsError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-memory", "3145728", "-workload", "rnd", "-instructions", "1000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not a positive multiple of 2 MB") {
		t.Fatalf("run = %v, want the 2 MB multiple error", err)
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-system", "tpu"}, &out); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestHelpFlagIsCleanExit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
}

func TestBadFlagReportsOnce(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-no-such-flag"}, &out)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(err.Error(), "flag parsing failed") {
		t.Errorf("bad flag error = %v, want the already-reported marker", err)
	}
}
