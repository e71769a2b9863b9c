"""The paper's primary contribution: the PUT/GET interface with combined
flag update, stride transfer, the acknowledge idiom, and completion/
collective models."""
