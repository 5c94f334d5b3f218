//go:build !race

package predict

const raceEnabled = false
