# Convenience targets for the RLD reproduction.
#
# Every target works in a clean checkout without an editable install:
# the package lives under src/, so we put it on PYTHONPATH directly —
# the same command CI and the tier-1 verify run.

PYTHON ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint chaos bench bench-tables examples all

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

# Static gates: repro lint (the per-file rules, in one run; properties
# of the built program are runtime tests), then mypy --strict over the
# determinism/parity-critical packages (core + query + engine
# + runtime + workloads; config in pyproject.toml).  mypy is an optional dev
# dependency — when it is not installed the type gate is skipped with a
# notice so `make lint` still works in minimal environments; CI always
# installs it, so the gate is enforced there.
lint:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro lint
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro/core src/repro/query src/repro/engine src/repro/runtime src/repro/workloads; \
	else \
		echo "mypy not installed; skipping the strict-typing gate (CI enforces it)"; \
	fi

chaos:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro simulate --query q1 --duration 150 \
		--faults random:crashes=1:slowdowns=1:partitions=1:dropouts=1:degradations=1
	$(PYTHONPATH_SRC) $(PYTHON) -m repro simulate --query q1 --duration 120 \
		--faults "crash@20:node=1:for=15,slowdown@30:node=0:factor=0.5:for=20,partition@50:for=5,dropout@10:for=30,degrade@40:factor=4:for=20"

bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-tables:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHONPATH_SRC) $(PYTHON) examples/quickstart.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/stock_monitoring.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/sensor_network.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/fluctuation_tolerance.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/fault_tolerance.py
	$(PYTHONPATH_SRC) $(PYTHON) examples/deploy_workflow.py

all: test bench
