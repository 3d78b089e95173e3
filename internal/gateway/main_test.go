package gateway_test

import (
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
