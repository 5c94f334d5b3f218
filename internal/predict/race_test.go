//go:build race

package predict

// raceEnabled is set when the tests run under the race detector, which
// makes sync.Pool drop a random quarter of the values put back: there,
// allocation counts through the tree package's kernel scratch pool say
// nothing about the steady state, and the tests do not assert them.
const raceEnabled = true
