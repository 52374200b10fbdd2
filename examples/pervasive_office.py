"""A pervasive office on hand-crafted ontologies: the full feature tour.

A visitor's laptop wants to print a color photo.  The office network
hosts an inkjet printer, a laser printer, a projector and a format
converter, described over the `repro.ontology.fixtures` suite.  Per the
paper's §2.3 matching direction, providers advertise *general* concepts
and requests name *specific* needs (Fig. 1: provided DigitalServer ⊒
requested VideoServer).  The scenario exercises:

1. **inference** — the inkjet advertises the *defined* class
   ``ColorPrinter`` (≡ Printer ⊓ ∃supports.ColorOutput); the request
   names ``InkjetPrinter``, and the subsumption
   ``ColorPrinter ⊒ InkjetPrinter`` exists *only by inference* (no told
   edge) — it was baked into the interval codes at classification time;
2. **semantic matching** — the laser printer matches a generic print
   request but not the inkjet-class color request;
3. **composition** — the inkjet requires PDF input; a converter service
   provides Photo→PDF, and the planner wires it in transitively.

The inkjet's profile also carries its ``submit → confirm`` conversation
(an OWL-S process term), which travels with the advertisement.

Run:  python examples/pervasive_office.py
"""

from repro import (
    Capability,
    CodeTable,
    Composer,
    OntologyRegistry,
    SemanticDirectory,
    ServiceProfile,
    ServiceRequest,
)
from repro.ontology.fixtures import device, document, office_suite, service
from repro.services.process import Invoke, sequence


def build_services() -> list[ServiceProfile]:
    inkjet = ServiceProfile(
        uri="urn:office:svc:inkjet",
        name="LobbyInkjet",
        provided=(
            Capability.build(
                "urn:office:cap:inkjet-print",
                "PrintColor",
                inputs=[document("Pdf")],
                outputs=[document("PrintReceipt")],
                properties=[device("ColorPrinter")],
                category=service("PrintService"),
            ),
        ),
        required=(
            Capability.build(
                "urn:office:cap:need-pdf",
                "NeedPdfConversion",
                inputs=[document("Photo")],
                outputs=[document("Pdf")],
            ),
        ),
        process=sequence(Invoke("submit"), Invoke("confirm")),
    )
    laser = ServiceProfile(
        uri="urn:office:svc:laser",
        name="CopyRoomLaser",
        provided=(
            Capability.build(
                "urn:office:cap:laser-print",
                "PrintMono",
                inputs=[document("Pdf")],
                outputs=[document("PrintReceipt")],
                properties=[device("LaserPrinter")],
                category=service("PrintService"),
            ),
        ),
    )
    converter = ServiceProfile(
        uri="urn:office:svc:converter",
        name="FormatConverter",
        provided=(
            Capability.build(
                "urn:office:cap:convert",
                "PhotoToPdf",
                inputs=[document("Image")],
                outputs=[document("Pdf")],
                category=service("ConversionService"),
            ),
        ),
    )
    projector = ServiceProfile(
        uri="urn:office:svc:projector",
        name="MeetingRoomProjector",
        provided=(
            Capability.build(
                "urn:office:cap:project",
                "ProjectSlides",
                inputs=[document("Presentation")],
                outputs=[document("Artefact")],
                properties=[device("Projector")],
                category=service("ProjectionService"),
            ),
        ),
    )
    return [inkjet, laser, converter, projector]


def main() -> None:
    table = CodeTable(OntologyRegistry(office_suite()))
    directory = SemanticDirectory(table)
    for profile in build_services():
        directory.publish(profile)
    print(f"directory: {directory}\n")

    # 1 + 2: the color print request — its property names InkjetPrinter
    # (the device class the visitor's driver stack targets).  Only the
    # inkjet qualifies: its advertised *defined* class ColorPrinter
    # subsumes InkjetPrinter purely by inference.
    color_request = ServiceRequest(
        uri="urn:office:req:color-print",
        capabilities=(
            Capability.build(
                "urn:office:req:cap",
                "PrintMyPhoto",
                inputs=[document("Pdf")],
                outputs=[document("PrintReceipt")],
                properties=[device("InkjetPrinter")],
                category=service("ColorPrintService"),
            ),
        ),
    )
    matches = directory.query(color_request)
    print("color print request (property: InkjetPrinter):")
    for match in matches:
        print(f"  {match.capability.name} @ {match.service_uri} (d={match.distance})")
    assert [m.service_uri for m in matches] == ["urn:office:svc:inkjet"]
    print(
        "  -> matched through ColorPrinter ⊒ InkjetPrinter, an edge that exists"
        " only by inference (∃supports.ColorOutput)\n"
    )

    # Generic print request: both printers qualify (no device property).
    generic = ServiceRequest(
        uri="urn:office:req:any-print",
        capabilities=(
            Capability.build(
                "urn:office:req:cap2",
                "PrintAnything",
                inputs=[document("Pdf")],
                outputs=[document("PrintReceipt")],
                category=service("PrintService"),
            ),
        ),
    )
    generic_matches = directory.query(generic)
    print(f"generic print request: {[m.service_uri.rsplit(':', 1)[-1] for m in generic_matches]}\n")
    assert {m.service_uri for m in generic_matches} == {
        "urn:office:svc:inkjet",
        "urn:office:svc:laser",
    }

    # 3: composition — the inkjet itself needs a Photo→Pdf conversion.
    plan = Composer(directory).compose(color_request)
    print("composition plan for the color print task:")
    for binding in plan.bindings:
        print(
            f"  {binding.consumer_uri.rsplit(':', 1)[-1]:<16} needs"
            f" {binding.required_capability.name:<18} ->"
            f" {binding.provider_uri.rsplit(':', 1)[-1]} (d={binding.distance})"
        )
    assert plan.resolved
    assert "urn:office:svc:converter" in plan.services()
    print(f"  resolved with total distance {plan.total_distance}")


if __name__ == "__main__":
    main()
