# Convenience wrappers around the cmake build.  `make lint` runs the exact
# cats-lint gate CI enforces (all rules R0-R7, zero findings).

BUILD_DIR ?= build
PYTHON    ?= python3

.PHONY: lint configure build test quick

lint:
	$(PYTHON) tools/catslint/catslint.py --jobs 0

configure:
	cmake -S . -B $(BUILD_DIR) -DCMAKE_BUILD_TYPE=RelWithDebInfo

build: configure
	cmake --build $(BUILD_DIR) -j

test: build
	ctest --test-dir $(BUILD_DIR) --output-on-failure

quick: build
	ctest --test-dir $(BUILD_DIR) -L quick --output-on-failure
