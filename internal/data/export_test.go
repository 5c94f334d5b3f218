package data

// ScanPipelineForTest exposes the pipeline at an explicit depth and decode
// worker count to the external test package (colfault_test.go).
func (s *ColSource) ScanPipelineForTest(depth, workers int) (ChunkScanner, error) {
	return s.scanPipeline(depth, workers, nil)
}
