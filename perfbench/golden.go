package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden holds the exact outcomes at defaultSeed: every launch's
// fingerprint and every corpus app's compile outcome. The benchmark's
// tests regenerate golden.json with -update; review its diff.
type golden struct {
	Seed     uint64                 `json:"seed"`
	Launches map[string]fingerprint `json:"launches"`
	Apps     map[string]string      `json:"apps"`
}

//go:embed golden.json
var goldenJSON []byte

func committedGolden() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}
