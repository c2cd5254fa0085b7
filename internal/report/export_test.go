package report

// OracleHTML renders r through the string-building oracle renderer
// (oracle_test.go).
var OracleHTML = oracleHTML

// HTMLSizeHint is the capacity HTML presizes r's page buffer to.
func HTMLSizeHint(r *Report) int { return r.buildPage().size() }
