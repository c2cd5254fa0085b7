package trace

// OracleWritePerfetto is the fmt-based Perfetto writer
// (oracle_test.go).
var OracleWritePerfetto = oracleWritePerfetto
