package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runMeta stamps a result with what it ran on and what it ran. The
// working directory is the repository root (run.sh starts there).
func runMeta(env *runEnv) map[string]string {
	m := map[string]string{
		"go_version":   runtime.Version(),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu_model":    cpuModel(),
		"commit":       commit(),
		"source_hash":  sourceHash(),
		"fsync":        "always",
		"seed":         strconv.FormatUint(env.seed, 10),
		"seconds":      strconv.FormatFloat(env.seconds, 'g', -1, 64),
		"server_flags": strings.Join(env.cfg.PinnedServerFlags, " "),
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "unknown" outside a git
// checkout; source_hash identifies the tree either way.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over the path and content of every .go file
// and go.mod of the tree, skipping hidden directories (build output).
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
