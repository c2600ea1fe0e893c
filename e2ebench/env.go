package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Env is the header every result and span file starts with: the hardware
// and toolchain a record was measured on. Two records are comparable only
// when everything but the commit agrees.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git revision the benchmark was built from, suffixed
	// "-dirty" when the working tree had uncommitted changes, or "unknown"
	// outside a git checkout.
	Commit string `json:"commit"`
}

func currentEnv(commit string) Env {
	if commit == "" {
		commit = "unknown"
	}
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// sameHardware reports whether two records were measured on the same kind
// of machine with the same toolchain; the commit is what a comparison
// varies, so it is not part of the key.
func (e Env) sameHardware(o Env) bool {
	return e.NProc == o.NProc && e.GOMAXPROCS == o.GOMAXPROCS &&
		e.GoVersion == o.GoVersion && e.CPUModel == o.CPUModel
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
