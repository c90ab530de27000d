__version__ = "0.1.0"
GENERATOR = f"arrivalab {__version__}"  # every output's generator line, and what --version prints
