package cache_test

// FBF lives in internal/core, which imports this package, so only an
// external test file can register it; with it the registry-wide tests
// (TestPolicyContract, TestConformanceAllPolicies) cover FBF too.
import _ "fbf/internal/core"
