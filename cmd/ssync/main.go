// ssync is the suite's one binary: `ssync run` executes any subset of
// the registered experiments on the sharded harness with JSON, CSV or
// table output, `ssync list` enumerates them, `ssync figures` prints
// each table and figure of the paper as text, `ssync store` and
// `ssync cluster` drive the serving stack, `ssync topology` shows the
// platform models and `ssync lint` runs the invariant analyzers.
//
// Usage:
//
//	ssync run locks/single -platform xeon -threads 1,10,36 -parallel 8 -json
//	ssync list
//	ssync figures -id F5
//	ssync lint ./...
package main

import "ssync/internal/cli"

func main() { cli.Run(cli.Main) }
