package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunFullSuite(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 0.3, 0.7); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table6.csv", "table7.csv", "table8.csv", "examples.csv", "validation.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestRunWithoutCSV(t *testing.T) {
	if err := run("", 0.3, 0.65); err != nil {
		t.Fatal(err)
	}
}
