package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenCacheRejectsURL: -cache takes a directory; a URL fails loudly
// instead of creating a directory tree named after it.
func TestOpenCacheRejectsURL(t *testing.T) {
	t.Chdir(t.TempDir())
	_, err := openCache("http://host:8947")
	if err == nil || !strings.Contains(err.Error(), "-cache takes a directory") {
		t.Errorf("openCache(URL): err = %v, want one saying -cache takes a directory", err)
	}
	if _, err := os.Stat("http:"); !os.IsNotExist(err) {
		t.Errorf("openCache(URL) created a directory: %v", err)
	}
}

func TestOpenCacheDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if _, err := openCache(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("openCache did not create the cache directory: %v", err)
	}
}
